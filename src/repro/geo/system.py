"""The geo tier of one cluster run: regions, WAN commit variants, placement.

With ``ClusterConfig.geo.regions > 1`` the
:class:`~repro.cluster.system.ClusterSystem` groups its edges into
contiguous *regions* — region ``r`` owns edges ``[r * edges_per_region,
(r + 1) * edges_per_region)`` and the partitions initially homed on them
— connected by the seeded WAN channel mesh of
:class:`~repro.geo.wan.WanFabric`, places streams region-first, and builds
one :class:`GeoTier` per run.  Region-local transactions run the existing
fast-path 2PC untouched.

Every atomic-commitment round reaches the tier through the committing
replica's transaction policy, after the policy's own accounting
(``TransactionPolicy.on_commit_round``).  The tier models the round's WAN
messaging with the configured :data:`~repro.geo.wan.CROSS_REGION_POLICIES`
variant and returns the synchronous WAN latency, which the policy bills to
the frame in flight — so the cost flows into server occupancy and the
latency breakdown without the frame pipeline changing.  The async variant
ships write-sets one-way into a :class:`~repro.geo.reconcile.Reconciler`
and apologises for conflicting concurrent writes.  Store state always
evolves through the controllers exactly as before, so every variant
produces identical detection output for one seed and differs only in
latency and round-trip accounting.

Under ``dominant-region`` placement the tier decides which partition moves
where (:meth:`GeoTier.placement_target`) and the cluster executes each
move.  With ``regions=1`` the cluster builds none of this: no WAN
channels, no tier, no extra RNG streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.geo.placement import PlacementTracker
from repro.geo.reconcile import APOLOGY_BUDGET_PER_S, Reconciler, ShipStamp, WriteShip
from repro.geo.wan import (
    CROSS_REGION_POLICIES,
    HANDOFF_MESSAGE_BYTES,
    HANDOFF_RESULT_BYTES,
    PLACEMENTS,
    WRITE_SET_MESSAGE_BYTES,
    WanFabric,
)
from repro.network.topology import WAN_LINKS
from repro.sim.engine import Engine
from repro.traffic.shedding import ApologyBudget
from repro.transactions.policy import (
    ACK_MESSAGE_BYTES,
    COMMIT_MESSAGE_BYTES,
    PREPARE_MESSAGE_BYTES,
    VOTE_MESSAGE_BYTES,
)


@dataclass(frozen=True)
class GeoConfig:
    """Geo-tier deployment knobs (everything sweepable by name)."""

    regions: int = 1
    wan_link: str = "cross-country"
    cross_region_policy: str = "global-2pc"
    placement: str = "static"

    def __post_init__(self) -> None:
        if self.regions < 1:
            raise ValueError(f"regions must be at least 1, got {self.regions}")
        if self.wan_link not in WAN_LINKS:
            known = ", ".join(sorted(WAN_LINKS))
            raise ValueError(f"unknown wan_link {self.wan_link!r}; known links: {known}")
        if self.cross_region_policy not in CROSS_REGION_POLICIES:
            known = ", ".join(CROSS_REGION_POLICIES)
            raise ValueError(
                f"unknown cross_region_policy {self.cross_region_policy!r}; "
                f"known policies: {known}"
            )
        if self.placement not in PLACEMENTS:
            known = ", ".join(PLACEMENTS)
            raise ValueError(
                f"unknown placement {self.placement!r}; known placements: {known}"
            )


def _charge_percentiles_ms(samples: list[float]) -> dict[str, float]:
    """Mean/p50/p99 of commit-latency samples, in milliseconds."""
    if not samples:
        return {"mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    array = np.asarray(samples)
    return {
        "mean_ms": float(array.mean()) * 1e3,
        "p50_ms": float(np.percentile(array, 50)) * 1e3,
        "p99_ms": float(np.percentile(array, 99)) * 1e3,
    }


class GeoTier:
    """The geo accounting and decisions of one multi-region cluster run.

    The cluster builds one per run, so the geo block it reports covers
    that run alone.  ``partition_home`` is the cluster's live
    partition → edge map (every re-home updates it); ``wan`` is the
    system's channel mesh, whose byte accounting restarts here.

    Accounting is per origin region.  A transaction counts once, in its
    origin region, however many commit rounds it runs; it is
    *cross-region* when any of its rounds touched a partition homed
    outside that region.  ``charges`` holds the synchronous WAN latency
    billed per cross-region round — the distribution behind the
    cross-region latency percentiles (all zeros under ``async-reconcile``).
    """

    def __init__(
        self,
        config: GeoConfig,
        num_edges: int,
        partition_home: dict[int, int],
        wan: WanFabric,
        engine: Engine,
    ) -> None:
        self.config = config
        self.edges_per_region = num_edges // config.regions
        self._partition_home = partition_home
        self._wan = wan
        self._engine = engine
        regions = config.regions
        self.txns = [0] * regions
        self.cross_region_txns = [0] * regions
        self.commit_rounds = [0] * regions
        self.cross_region_rounds = [0] * regions
        self.wan_round_trips = [0] * regions
        self.wan_time_s = [0.0] * regions
        self.charges: list[list[float]] = [[] for _ in range(regions)]
        self.migrated_handoffs = self.ships = self.placement_moves = 0
        self._seen_txns: set[str] = set()
        self._seen_cross: set[str] = set()
        self._reconciler = (
            Reconciler(budget=ApologyBudget(APOLOGY_BUDGET_PER_S))
            if config.cross_region_policy == "async-reconcile"
            else None
        )
        self._tracker = (
            PlacementTracker(len(partition_home), regions)
            if config.placement == "dominant-region"
            else None
        )
        self._ship_seq = 0
        wan.reset()

    # -- geometry -----------------------------------------------------------
    def region_of_edge(self, edge_id: int) -> int:
        """Region owning ``edge_id`` (contiguous grouping)."""
        return edge_id // self.edges_per_region

    def region_edges(self, region: int) -> range:
        """The edges of ``region``."""
        return range(region * self.edges_per_region, (region + 1) * self.edges_per_region)

    # -- commit observation --------------------------------------------------
    def observe_commit_round(
        self, edge_id: int, txn_id: str, participants: frozenset[int]
    ) -> float:
        """Classify one atomic-commitment round and model its WAN messaging.

        Returns the synchronous WAN latency the round adds to the frame
        in flight (0.0 when region-local or under ``async-reconcile``).
        """
        origin = self.region_of_edge(edge_id)
        if txn_id not in self._seen_txns:
            self._seen_txns.add(txn_id)
            self.txns[origin] += 1
        self.commit_rounds[origin] += 1

        # Participant partitions by the region homing them, each list in
        # partition order (with regions visited sorted, every WAN
        # channel's draws are deterministic per seed).
        by_region: dict[int, list[int]] = {}
        for partition in sorted(participants):
            region = self.region_of_edge(self._partition_home[partition])
            by_region.setdefault(region, []).append(partition)
            if self._tracker is not None:
                self._tracker.observe(partition, origin)
        if not by_region.keys() - {origin}:
            return 0.0
        if txn_id not in self._seen_cross:
            self._seen_cross.add(txn_id)
            self.cross_region_txns[origin] += 1
        self.cross_region_rounds[origin] += 1

        now = self._engine.now
        policy = self.config.cross_region_policy
        if policy == "global-2pc":
            commit = self._global_commit
        elif policy == "migrated-2pc":
            commit = self._migrated_commit
        else:
            commit = self._async_commit
        charge, round_trips, wan_time = commit(origin, txn_id, by_region, now)
        self.wan_round_trips[origin] += round_trips
        self.wan_time_s[origin] += wan_time
        self.charges[origin].append(charge)
        return charge

    def _wan_phase(
        self,
        coordinator: int,
        remote: dict[int, list[int]],
        up_bytes: int,
        down_bytes: int,
        now: float,
        label: str,
    ) -> float:
        """One commit-protocol phase fanned out over WAN; returns its duration.

        The coordinator contacts every remote participant partition in
        parallel, so the phase lasts as long as the slowest round trip.
        """
        duration = 0.0
        for region in sorted(remote):
            channel = self._wan.channel(coordinator, region)
            for partition in remote[region]:
                uplink, downlink = channel.round_trip(
                    up_bytes,
                    down_bytes,
                    timestamp=now,
                    up_description=f"{label}-p{partition}",
                    down_description=f"{label}-ack-p{partition}",
                )
                duration = max(duration, uplink + downlink)
        return duration

    def _global_commit(
        self, coordinator: int, txn_id: str, by_region: dict[int, list[int]], now: float
    ) -> tuple[float, int, float]:
        """Prepare + commit phases from ``coordinator`` to every partition
        outside its region, over the WAN."""
        remote = {region: parts for region, parts in by_region.items() if region != coordinator}
        prepare = self._wan_phase(
            coordinator, remote, PREPARE_MESSAGE_BYTES, VOTE_MESSAGE_BYTES, now, "geo-prepare"
        )
        decide = self._wan_phase(
            coordinator, remote, COMMIT_MESSAGE_BYTES, ACK_MESSAGE_BYTES, now, "geo-commit"
        )
        charge = prepare + decide
        round_trips = 2 * sum(len(parts) for parts in remote.values())
        return charge, round_trips, charge

    def _migrated_commit(
        self, origin: int, txn_id: str, by_region: dict[int, list[int]], now: float
    ) -> tuple[float, int, float]:
        """Hand coordination to the region owning most participant partitions.

        The handoff costs one WAN round trip (ship the transaction, get
        the decision back); the target then runs the phases against only
        the partitions left outside it.  Because the target maximises
        its local participant count — ties stay at the origin — this
        never takes more WAN round trips than ``global-2pc``, and takes
        strictly fewer whenever the participants concentrate remotely.
        """
        target = max(
            range(self.config.regions),
            key=lambda region: (len(by_region.get(region, ())), region == origin, -region),
        )
        if target == origin:
            return self._global_commit(origin, txn_id, by_region, now)
        uplink, downlink = self._wan.channel(origin, target).round_trip(
            HANDOFF_MESSAGE_BYTES,
            HANDOFF_RESULT_BYTES,
            timestamp=now,
            up_description=f"geo-handoff-{txn_id}",
            down_description=f"geo-handoff-result-{txn_id}",
        )
        self.migrated_handoffs += 1
        inner_charge, inner_round_trips, _ = self._global_commit(target, txn_id, by_region, now)
        charge = uplink + inner_charge + downlink
        return charge, 1 + inner_round_trips, charge

    def _async_commit(
        self, origin: int, txn_id: str, by_region: dict[int, list[int]], now: float
    ) -> tuple[float, int, float]:
        """Commit locally; ship write-sets one-way for reconciliation."""
        # The origin's writes to its own partitions land in the converged
        # view immediately (arrival == commit); a remote region's delayed
        # ship for the same partition races against them, which is where
        # reconciliation conflicts — and apologies — come from.
        self._reconcile(by_region.get(origin, ()), txn_id, origin, now, arrival=now)
        remote = sorted(region for region in by_region if region != origin)
        wan_time = 0.0
        for region in remote:
            parts = by_region[region]
            delay = self._wan.channel(origin, region).send(
                WRITE_SET_MESSAGE_BYTES, timestamp=now, description=f"geo-ship-{txn_id}"
            )
            wan_time += delay
            self.ships += 1
            self._reconcile(parts, txn_id, origin, now, arrival=now + delay)
        # One one-way ship (acknowledged lazily) per remote region; the
        # commit itself never waits on the WAN.
        return 0.0, len(remote), wan_time

    def _reconcile(
        self, parts: Sequence[int], txn_id: str, origin: int, now: float, arrival: float
    ) -> None:
        """Deliver one write-set's partitions to the reconciler."""
        for partition in parts:
            self._ship_seq += 1
            self._reconciler.deliver(
                WriteShip(partition, txn_id, ShipStamp(now, origin, self._ship_seq), arrival)
            )

    # -- placement ----------------------------------------------------------
    @property
    def moves_partitions(self) -> bool:
        """Whether this run re-homes partitions (``dominant-region``)."""
        return self._tracker is not None

    def placement_target(self, partition_id: int, failed: Sequence[bool]) -> int | None:
        """Edge ``partition_id`` should move to now, or ``None`` to stay.

        A partition moves toward the region dominating its accesses
        (:meth:`~repro.geo.placement.PlacementTracker.dominant_region`),
        onto that region's live edge hosting the fewest partitions (ties
        to the lowest id); nothing moves off or onto a failed edge.
        """
        home_edge = self._partition_home[partition_id]
        target_region = self._tracker.dominant_region(
            partition_id, self.region_of_edge(home_edge)
        )
        if target_region is None or failed[home_edge]:
            return None
        candidates = [edge for edge in self.region_edges(target_region) if not failed[edge]]
        if not candidates:
            return None
        hosted = Counter(self._partition_home.values())
        return min(candidates, key=lambda edge: (hosted[edge], edge))

    def note_placed(self, partition_id: int) -> None:
        """Account one placement move the cluster executed."""
        self.placement_moves += 1
        # It just moved: its demand must re-prove itself from zero.
        self._tracker.forget(partition_id)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """The geo block of a :class:`~repro.experiments.report.RunReport`."""
        geo = self.config
        reconciler = self._reconciler
        total, cross = sum(self.txns), sum(self.cross_region_txns)
        round_trips = sum(self.wan_round_trips)
        per_region = [
            {
                "region": region,
                "edges": list(self.region_edges(region)),
                "txns": self.txns[region],
                "cross_region_txns": self.cross_region_txns[region],
                "commit_rounds": self.commit_rounds[region],
                "cross_region_rounds": self.cross_region_rounds[region],
                "wan_round_trips": self.wan_round_trips[region],
                "wan_time_s": self.wan_time_s[region],
                **_charge_percentiles_ms(self.charges[region]),
            }
            for region in range(geo.regions)
        ]
        all_charges = [charge for region in self.charges for charge in region]
        return {
            "regions": geo.regions,
            "edges_per_region": self.edges_per_region,
            "wan_link": geo.wan_link,
            "cross_region_policy": geo.cross_region_policy,
            "placement": geo.placement,
            "total_txns": total,
            "cross_region_txns": cross,
            "cross_region_txn_fraction": cross / total if total else 0.0,
            "wan_round_trips": round_trips,
            # Mean WAN round trips per *cross-region* transaction.
            "wan_round_trips_per_txn": round_trips / cross if cross else 0.0,
            "wan_time_s": sum(self.wan_time_s),
            "wan_bytes": self._wan.total_bytes,
            "migrated_handoffs": self.migrated_handoffs,
            "reconcile_ships": self.ships,
            "reconcile_conflicts": reconciler.conflicts if reconciler is not None else 0,
            "apologies": reconciler.apologies if reconciler is not None else 0,
            "placement_moves": self.placement_moves,
            "per_region": per_region,
            **{
                f"cross_region_{key}": value
                for key, value in _charge_percentiles_ms(all_charges).items()
            },
        }

    @staticmethod
    def summary_text(geo: dict[str, Any]) -> list[str]:
        """The ``geo`` block as the cluster command's text lines."""
        lines = [
            f"geo: {geo['regions']} regions x {geo['edges_per_region']} edges "
            f"over {geo['wan_link']} ({geo['cross_region_policy']}, "
            f"{geo['placement']} placement) — "
            f"{geo['cross_region_txns']}/{geo['total_txns']} txns cross-region "
            f"({geo['cross_region_txn_fraction']:.1%}), "
            f"{geo['wan_round_trips_per_txn']:.2f} WAN round trips/txn, "
            f"{geo['wan_bytes']} WAN bytes",
            f"  cross-region commit charge: mean {geo['cross_region_mean_ms']:.1f} ms, "
            f"p50 {geo['cross_region_p50_ms']:.1f} ms, p99 {geo['cross_region_p99_ms']:.1f} ms",
        ]
        if geo["migrated_handoffs"]:
            lines.append(f"  coordinator handoffs: {geo['migrated_handoffs']}")
        if geo["reconcile_ships"]:
            lines.append(
                f"  reconciliation: {geo['reconcile_ships']} write-set ships, "
                f"{geo['reconcile_conflicts']} conflicts, {geo['apologies']} apologies"
            )
        if geo["placement_moves"]:
            lines.append(f"  placement moves: {geo['placement_moves']}")
        for region in geo["per_region"]:
            lines.append(
                f"  region {region['region']}: {region['txns']} txns "
                f"({region['cross_region_txns']} cross-region), "
                f"commit charge p99 {region['p99_ms']:.1f} ms"
            )
        return lines
