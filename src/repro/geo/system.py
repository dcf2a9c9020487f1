"""Geo-hierarchical deployment: regions composed under one engine.

A :class:`GeoSystem` is a :class:`~repro.cluster.system.ClusterSystem`
whose edges are grouped into contiguous *regions* — region ``r`` owns
edges ``[r * edges_per_region, (r + 1) * edges_per_region)`` and the
partitions initially homed on them — connected by the seeded WAN channel
mesh of :class:`~repro.geo.wan.WanFabric`.  Streams land near their
region (:class:`~repro.geo.placement.GeoRouter`); region-local
transactions run the existing fast-path 2PC untouched.

Cross-region transactions are observed through the distributed
controllers' ``commit_listener`` hook — the same seam the transaction
policies use — and their WAN messaging is modelled by the configured
:data:`~repro.geo.wan.CROSS_REGION_POLICIES` variant.  Synchronous
variants bill their WAN latency to the frame in flight through
:meth:`~repro.transactions.policy.TransactionPolicy.add_frame_charge`,
so the cost flows into server occupancy and the latency breakdown
without the frame pipeline changing; the async variant ships write-sets
one-way into a :class:`~repro.geo.reconcile.Reconciler` and apologises
for conflicting concurrent writes.  Store state always evolves through
the wrapped controllers exactly as before, so — as with the transaction
policies — every variant produces identical detection output for one
seed and differs only in latency and round-trip accounting.

With ``regions=1`` none of this machinery is built: no WAN channels, no
listener chaining, no extra RNG streams — the system is bit-for-bit a
plain :class:`ClusterSystem`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster import ClusterConfig, ClusterSystem
from repro.geo.placement import GeoRouter, PlacementTracker
from repro.geo.reconcile import Reconciler, ShipStamp, WriteShip
from repro.geo.wan import (
    CROSS_REGION_POLICIES,
    HANDOFF_MESSAGE_BYTES,
    HANDOFF_RESULT_BYTES,
    PLACEMENTS,
    WRITE_SET_MESSAGE_BYTES,
    WanFabric,
)
from repro.network.topology import WAN_LINKS
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
    #: Cadence of the dominant-region placement process, in seconds.
    placement_interval_s: float = 0.5
    #: Apology budget of the async reconciler (tokens per second).
    apology_budget_per_s: float = 100.0

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
        if self.placement_interval_s <= 0:
            raise ValueError(
                f"placement_interval_s must be positive, got {self.placement_interval_s}"
            )
        if self.apology_budget_per_s <= 0:
            raise ValueError(
                f"apology_budget_per_s must be positive, got {self.apology_budget_per_s}"
            )


@dataclass
class GeoStats:
    """Geo-tier accounting, broken down by origin region.

    A *transaction* is counted once (in its origin region) however many
    atomic-commitment rounds it runs; it is *cross-region* when any of
    its rounds touched a partition homed outside the origin region.
    ``charges`` holds the synchronous WAN commit latency billed per
    cross-region round — the distribution behind the cross-region
    latency percentiles (all zeros under ``async-reconcile``).
    """

    regions: int
    txns: list[int] = field(default_factory=list)
    cross_region_txns: list[int] = field(default_factory=list)
    commit_rounds: list[int] = field(default_factory=list)
    cross_region_rounds: list[int] = field(default_factory=list)
    wan_round_trips: list[int] = field(default_factory=list)
    wan_time_s: list[float] = field(default_factory=list)
    charges: list[list[float]] = field(default_factory=list)
    migrated_handoffs: int = 0
    ships: int = 0
    placement_moves: int = 0
    _seen_txns: set[str] = field(default_factory=set)
    _seen_cross: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self.txns = [0] * self.regions
        self.cross_region_txns = [0] * self.regions
        self.commit_rounds = [0] * self.regions
        self.cross_region_rounds = [0] * self.regions
        self.wan_round_trips = [0] * self.regions
        self.wan_time_s = [0.0] * self.regions
        self.charges = [[] for _ in range(self.regions)]

    def note_txn(self, origin: int, txn_id: str) -> None:
        if txn_id not in self._seen_txns:
            self._seen_txns.add(txn_id)
            self.txns[origin] += 1

    def note_cross_region_txn(self, origin: int, txn_id: str) -> None:
        if txn_id not in self._seen_cross:
            self._seen_cross.add(txn_id)
            self.cross_region_txns[origin] += 1

    @property
    def total_txns(self) -> int:
        return sum(self.txns)

    @property
    def total_cross_region_txns(self) -> int:
        return sum(self.cross_region_txns)

    @property
    def cross_region_txn_fraction(self) -> float:
        total = self.total_txns
        return self.total_cross_region_txns / total if total else 0.0

    @property
    def wan_round_trips_per_txn(self) -> float:
        """Mean WAN round trips per *cross-region* transaction."""
        cross = self.total_cross_region_txns
        return sum(self.wan_round_trips) / cross if cross else 0.0


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


class GeoSystem(ClusterSystem):
    """A multi-region Croesus deployment over one engine and one store.

    ``config.num_edges`` is the *total* edge count and must split evenly
    into ``geo.regions`` contiguous groups.  See the module docstring
    for the commit-variant and placement semantics.
    """

    def __init__(
        self,
        config: ClusterConfig,
        geo: GeoConfig,
        bank_factory=None,
    ) -> None:
        if config.num_edges % geo.regions != 0:
            raise ValueError(
                f"num_edges ({config.num_edges}) must split evenly into "
                f"{geo.regions} regions"
            )
        if geo.regions > 1:
            if not config.record_frames:
                raise ValueError("a multi-region deployment needs record_frames=True")
            if config.base.transaction_policy != "immediate-2pc":
                raise ValueError(
                    "multi-region commit variants stack on immediate-2pc; got "
                    f"transaction_policy={config.base.transaction_policy!r}"
                )
            if config.replication_factor > 1:
                raise ValueError("multi-region deployments do not replicate partitions yet")
            if config.failure_schedule or config.failure_hazard_rate is not None:
                raise ValueError("multi-region deployments do not support failure injection yet")
            if config.resharding:
                raise ValueError(
                    "scheduled re-sharding conflicts with geo placement; drop one"
                )
        super().__init__(config, bank_factory=bank_factory)
        self.geo_config = geo
        self._edges_per_region = config.num_edges // geo.regions
        self.geo_stats = GeoStats(geo.regions)
        self._wan: WanFabric | None = None
        self._reconciler: Reconciler | None = None
        self._placement_tracker: PlacementTracker | None = None
        self._ship_seq = 0
        if geo.regions > 1:
            self._wan = WanFabric(
                geo.regions, geo.wan_link, self.rngs, record_transfers=config.record_frames
            )
            self.router = GeoRouter(geo.regions, self._edges_per_region)
            if geo.cross_region_policy == "async-reconcile":
                self._reconciler = Reconciler(
                    budget=ApologyBudget(geo.apology_budget_per_s)
                )
            if geo.placement == "dominant-region":
                self._placement_tracker = PlacementTracker(
                    config.num_partitions, geo.regions
                )
            for replica in self.replicas:
                self._chain_commit_listener(replica)

    # -- geometry -----------------------------------------------------------
    @property
    def regions(self) -> int:
        return self.geo_config.regions

    @property
    def edges_per_region(self) -> int:
        return self._edges_per_region

    @property
    def wan(self) -> WanFabric | None:
        """The WAN channel mesh (``None`` in a single-region deployment)."""
        return self._wan

    @property
    def reconciler(self) -> Reconciler | None:
        """The async reconciler (``None`` unless ``async-reconcile``)."""
        return self._reconciler

    def region_of_edge(self, edge_id: int) -> int:
        """Region owning ``edge_id`` (contiguous grouping)."""
        return edge_id // self._edges_per_region

    def region_of_partition(self, partition_id: int) -> int | None:
        """Region currently homing ``partition_id`` (tracks placement moves)."""
        edge_id = self._partition_home.get(partition_id)
        return None if edge_id is None else self.region_of_edge(edge_id)

    # -- commit observation --------------------------------------------------
    def _chain_commit_listener(self, replica) -> None:
        """Stack the geo observer behind the policy's commit listener.

        The system holds the controller, so the listener reaches the
        system through a weak reference (no reference cycle).
        """
        controller = replica.controller
        original = controller.commit_listener
        edge_id = replica.edge_id
        system = weakref.ref(self)

        def listener(txn_id: str, participants: frozenset[int]) -> None:
            if original is not None:
                original(txn_id, participants)
            system()._observe_commit_round(edge_id, txn_id, participants)

        controller.commit_listener = listener

    def _observe_commit_round(
        self, edge_id: int, txn_id: str, participants: frozenset[int]
    ) -> None:
        """Classify one atomic-commitment round; model its WAN messaging."""
        stats = self.geo_stats
        origin = self.region_of_edge(edge_id)
        stats.note_txn(origin, txn_id)
        stats.commit_rounds[origin] += 1

        region_of: dict[int, int] = {}
        for partition in participants:
            region = self.region_of_partition(partition)
            if region is not None:
                region_of[partition] = region
        if self._placement_tracker is not None:
            for partition in region_of:
                self._placement_tracker.observe(partition, origin)

        remote_parts = sorted(p for p, r in region_of.items() if r != origin)
        if not remote_parts:
            return
        stats.note_cross_region_txn(origin, txn_id)
        stats.cross_region_rounds[origin] += 1

        now = self._run_engine.now if self._run_engine is not None else 0.0
        policy = self.geo_config.cross_region_policy
        if policy == "global-2pc":
            charge, round_trips, wan_time = self._global_commit(
                origin, txn_id, region_of, remote_parts, now
            )
        elif policy == "migrated-2pc":
            charge, round_trips, wan_time = self._migrated_commit(
                origin, txn_id, region_of, remote_parts, now
            )
        else:
            charge, round_trips, wan_time = self._async_commit(
                origin, txn_id, region_of, remote_parts, now
            )
        stats.wan_round_trips[origin] += round_trips
        stats.wan_time_s[origin] += wan_time
        stats.charges[origin].append(charge)
        if charge > 0.0:
            self.replicas[edge_id].policy.add_frame_charge(charge)

    def _wan_phase(
        self,
        coordinator: int,
        parts_by_region: dict[int, list[int]],
        up_bytes: int,
        down_bytes: int,
        now: float,
        label: str,
    ) -> float:
        """One commit-protocol phase fanned out over WAN; returns its duration.

        The coordinator contacts every remote participant partition in
        parallel, so the phase lasts as long as the slowest round trip.
        Regions and partitions are visited in sorted order so every WAN
        channel's jitter draws are deterministic per seed.
        """
        duration = 0.0
        for region in sorted(parts_by_region):
            channel = self._wan.channel(coordinator, region)
            for partition in parts_by_region[region]:
                uplink, downlink = channel.round_trip(
                    up_bytes,
                    down_bytes,
                    timestamp=now,
                    up_description=f"{label}-p{partition}",
                    down_description=f"{label}-ack-p{partition}",
                )
                duration = max(duration, uplink + downlink)
        return duration

    @staticmethod
    def _group_by_region(
        region_of: dict[int, int], parts: list[int]
    ) -> dict[int, list[int]]:
        grouped: dict[int, list[int]] = {}
        for partition in parts:
            grouped.setdefault(region_of[partition], []).append(partition)
        return grouped

    def _record_ships(
        self,
        policy: str,
        txn_id: str,
        origin: int,
        parts_by_region: dict[int, list[int]],
        round_trips_per_part: int,
        bytes_per_part: int,
        duration: float,
        now: float,
    ) -> None:
        for region in sorted(parts_by_region):
            parts = parts_by_region[region]
            self.events.record(
                now,
                "wan_ship",
                txn=txn_id,
                policy=policy,
                from_region=origin,
                to_region=region,
                partitions=len(parts),
                round_trips=round_trips_per_part * len(parts),
                bytes=bytes_per_part * len(parts),
                duration=duration,
            )

    def _global_commit(
        self,
        origin: int,
        txn_id: str,
        region_of: dict[int, int],
        remote_parts: list[int],
        now: float,
        coordinator: int | None = None,
    ) -> tuple[float, int, float]:
        """Prepare + commit phases from ``coordinator`` over the WAN."""
        coordinator = origin if coordinator is None else coordinator
        parts_by_region = self._group_by_region(region_of, remote_parts)
        prepare = self._wan_phase(
            coordinator, parts_by_region, PREPARE_MESSAGE_BYTES, VOTE_MESSAGE_BYTES,
            now, "geo-prepare",
        )
        decide = self._wan_phase(
            coordinator, parts_by_region, COMMIT_MESSAGE_BYTES, ACK_MESSAGE_BYTES,
            now, "geo-commit",
        )
        charge = prepare + decide
        round_trips = 2 * len(remote_parts)
        per_part_bytes = (
            PREPARE_MESSAGE_BYTES + VOTE_MESSAGE_BYTES
            + COMMIT_MESSAGE_BYTES + ACK_MESSAGE_BYTES
        )
        self._record_ships(
            "global-2pc", txn_id, coordinator, parts_by_region,
            round_trips_per_part=2, bytes_per_part=per_part_bytes,
            duration=charge, now=now,
        )
        return charge, round_trips, charge

    def _migrated_commit(
        self,
        origin: int,
        txn_id: str,
        region_of: dict[int, int],
        remote_parts: list[int],
        now: float,
    ) -> tuple[float, int, float]:
        """Hand coordination to the region owning most participant partitions.

        The handoff costs one WAN round trip (ship the transaction, get
        the decision back); the target then runs the phases against only
        the partitions left outside it.  Because the target maximises
        its local participant count — ties stay at the origin — this
        never takes more WAN round trips than ``global-2pc``, and takes
        strictly fewer whenever the participants concentrate remotely.
        """
        counts = [0] * self.regions
        for region in region_of.values():
            counts[region] += 1
        target = max(
            range(self.regions),
            key=lambda region: (counts[region], region == origin, -region),
        )
        if target == origin:
            return self._global_commit(origin, txn_id, region_of, remote_parts, now)
        handoff_channel = self._wan.channel(origin, target)
        uplink, downlink = handoff_channel.round_trip(
            HANDOFF_MESSAGE_BYTES,
            HANDOFF_RESULT_BYTES,
            timestamp=now,
            up_description=f"geo-handoff-{txn_id}",
            down_description=f"geo-handoff-result-{txn_id}",
        )
        self.geo_stats.migrated_handoffs += 1
        self.events.record(
            now,
            "wan_ship",
            txn=txn_id,
            policy="migrated-2pc",
            from_region=origin,
            to_region=target,
            partitions=0,
            round_trips=1,
            bytes=HANDOFF_MESSAGE_BYTES + HANDOFF_RESULT_BYTES,
            duration=uplink + downlink,
        )
        remaining = sorted(p for p, r in region_of.items() if r != target)
        inner_charge = 0.0
        inner_round_trips = 0
        if remaining:
            inner_charge, inner_round_trips, _ = self._global_commit(
                target, txn_id, region_of, remaining, now, coordinator=target
            )
        charge = uplink + inner_charge + downlink
        return charge, 1 + inner_round_trips, charge

    def _async_commit(
        self,
        origin: int,
        txn_id: str,
        region_of: dict[int, int],
        remote_parts: list[int],
        now: float,
    ) -> tuple[float, int, float]:
        """Commit locally; ship write-sets one-way for reconciliation."""
        # The origin's writes to its own partitions land in the converged
        # view immediately (arrival == commit); a remote region's delayed
        # ship for the same partition races against them, which is where
        # reconciliation conflicts — and apologies — come from.
        local_parts = sorted(p for p, r in region_of.items() if r == origin)
        for partition in local_parts:
            self._ship_seq += 1
            self._reconciler.deliver(
                WriteShip(
                    key=partition,
                    value=txn_id,
                    stamp=ShipStamp(now, origin, self._ship_seq),
                    arrival_time=now,
                )
            )
        parts_by_region = self._group_by_region(region_of, remote_parts)
        wan_time = 0.0
        for region in sorted(parts_by_region):
            parts = parts_by_region[region]
            channel = self._wan.channel(origin, region)
            delay = channel.send(
                WRITE_SET_MESSAGE_BYTES,
                timestamp=now,
                description=f"geo-ship-{txn_id}",
            )
            wan_time += delay
            self.geo_stats.ships += 1
            arrival = now + delay
            for partition in parts:
                self._ship_seq += 1
                self._reconciler.deliver(
                    WriteShip(
                        key=partition,
                        value=txn_id,
                        stamp=ShipStamp(now, origin, self._ship_seq),
                        arrival_time=arrival,
                    )
                )
            self.events.record(
                now,
                "wan_ship",
                txn=txn_id,
                policy="async-reconcile",
                from_region=origin,
                to_region=region,
                partitions=len(parts),
                round_trips=1,
                bytes=WRITE_SET_MESSAGE_BYTES,
                duration=delay,
            )
        # One one-way ship (acknowledged lazily) per remote region; the
        # commit itself never waits on the WAN.
        return 0.0, len(parts_by_region), wan_time

    # -- placement ----------------------------------------------------------
    def _spawn_run_processes(self, state, horizon: float) -> None:
        super()._spawn_run_processes(state, horizon)
        if self._placement_tracker is not None:
            state.engine.spawn(
                self._placement_process(state),
                at=self.geo_config.placement_interval_s,
                name="geo-placement",
            )

    def _placement_process(self, state):
        """Periodically re-home partitions toward their dominant region."""
        interval = self.geo_config.placement_interval_s
        while state.frames_remaining > 0 or state.source_active:
            self._rebalance_partitions(state)
            yield interval

    def _rebalance_partitions(self, state) -> None:
        tracker = self._placement_tracker
        now = state.engine.now
        for partition_id in range(self.config.num_partitions):
            home_edge = self._partition_home[partition_id]
            home_region = self.region_of_edge(home_edge)
            target_region = tracker.dominant_region(partition_id, home_region)
            if target_region is None or state.failed[home_edge]:
                continue
            candidates = [
                edge_id
                for edge_id in range(
                    target_region * self._edges_per_region,
                    (target_region + 1) * self._edges_per_region,
                )
                if not state.failed[edge_id]
            ]
            if not candidates:
                continue
            target_edge = min(
                candidates,
                key=lambda edge_id: (len(self.replicas[edge_id].owned_partitions), edge_id),
            )
            outcome = self.store.transfer_partition(partition_id)
            self.replicas[home_edge].release_partition(partition_id)
            self.replicas[target_edge].adopt_partition(partition_id)
            self._partition_home[partition_id] = target_edge
            self.geo_stats.placement_moves += 1
            tracker.forget(partition_id)
            self.events.record(
                now,
                "partition_placed",
                partition=partition_id,
                from_edge=home_edge,
                to_edge=target_edge,
                from_region=home_region,
                to_region=target_region,
                keys_copied=outcome.keys_copied,
                records_shipped=outcome.records_shipped,
            )

    # -- reporting ----------------------------------------------------------
    def geo_summary(self) -> dict[str, Any]:
        """The geo block of a :class:`~repro.experiments.report.RunReport`."""
        geo = self.geo_config
        stats = self.geo_stats
        all_charges = [charge for region in stats.charges for charge in region]
        per_region = []
        for region in range(geo.regions):
            entry: dict[str, Any] = {
                "region": region,
                "edges": list(
                    range(
                        region * self._edges_per_region,
                        (region + 1) * self._edges_per_region,
                    )
                ),
                "txns": stats.txns[region],
                "cross_region_txns": stats.cross_region_txns[region],
                "commit_rounds": stats.commit_rounds[region],
                "cross_region_rounds": stats.cross_region_rounds[region],
                "wan_round_trips": stats.wan_round_trips[region],
                "wan_time_s": stats.wan_time_s[region],
            }
            entry.update(_charge_percentiles_ms(stats.charges[region]))
            per_region.append(entry)
        summary: dict[str, Any] = {
            "regions": geo.regions,
            "edges_per_region": self._edges_per_region,
            "wan_link": geo.wan_link,
            "cross_region_policy": geo.cross_region_policy,
            "placement": geo.placement,
            "total_txns": stats.total_txns,
            "cross_region_txns": stats.total_cross_region_txns,
            "cross_region_txn_fraction": stats.cross_region_txn_fraction,
            "wan_round_trips": sum(stats.wan_round_trips),
            "wan_round_trips_per_txn": stats.wan_round_trips_per_txn,
            "wan_time_s": sum(stats.wan_time_s),
            "wan_bytes": self._wan.total_bytes if self._wan is not None else 0,
            "migrated_handoffs": stats.migrated_handoffs,
            "reconcile_ships": stats.ships,
            "reconcile_conflicts": (
                self._reconciler.conflicts if self._reconciler is not None else 0
            ),
            "apologies": (
                self._reconciler.apologies if self._reconciler is not None else 0
            ),
            "placement_moves": stats.placement_moves,
            "per_region": per_region,
        }
        summary.update(
            {
                f"cross_region_{key}": value
                for key, value in _charge_percentiles_ms(all_charges).items()
            }
        )
        return summary
