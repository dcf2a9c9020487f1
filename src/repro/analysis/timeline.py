"""Timeline analyses over the simulation event log.

The engine-driven systems record what happened *when* — commits, cloud
validations (with their queueing delay), and runtime stream migrations.
These helpers read those event kinds off the per-kind index of
:class:`~repro.sim.events.EventLog` and reduce them to the series the
benchmarks and the CLI report, so consumers never rescan the raw
timeline themselves.

Every reduction but :func:`stage_commit_counts` needs a log that keeps
its events (a ``record_frames=True`` run's): a count-only log raises
:class:`~repro.sim.events.EventsNotRetained` rather than reduce to an
empty timeline.  A run's report does not come from here — it reads the
records the run kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.sim.events import EventLog


@dataclass(frozen=True)
class CloudQueueProfile:
    """How hard validated frames hit the cloud in one run."""

    validations: int
    queued: int
    mean_delay: float
    max_delay: float

    @property
    def queued_fraction(self) -> float:
        """Fraction of validations that had to wait for a cloud server."""
        return self.queued / self.validations if self.validations else 0.0


def cloud_queue_profile(events: EventLog) -> CloudQueueProfile:
    """Summarise the ``cloud_validate`` events of one run (retaining log)."""
    delays = [event.payload["queue_delay"] for event in events.of_kind("cloud_validate")]
    return CloudQueueProfile(
        validations=len(delays),
        queued=sum(1 for delay in delays if delay > 0),
        mean_delay=mean(delays) if delays else 0.0,
        max_delay=max(delays, default=0.0),
    )


@dataclass(frozen=True)
class MigrationTimeline:
    """The runtime re-routing decisions of one ``"migrating"`` run."""

    moves: tuple[tuple[float, str, int, int], ...]  # (time, stream, from, to)

    @property
    def count(self) -> int:
        return len(self.moves)

    @property
    def streams_moved(self) -> frozenset[str]:
        return frozenset(stream for _, stream, _, _ in self.moves)

    def moves_off(self, edge_id: int) -> int:
        """How many streams migrated away from ``edge_id``."""
        return sum(1 for _, _, from_edge, _ in self.moves if from_edge == edge_id)


def migration_timeline(events: EventLog) -> MigrationTimeline:
    """Collect the ``stream_migrated`` events of one run in time order (retaining log)."""
    moves = tuple(
        (
            event.timestamp,
            event.payload["stream"],
            event.payload["from_edge"],
            event.payload["to_edge"],
        )
        for event in events.of_kind("stream_migrated")
    )
    return MigrationTimeline(moves=moves)


def stage_commit_counts(events: EventLog) -> dict[str, int]:
    """Initial/final commit totals, straight off the per-kind counts (any log)."""
    return {
        "initial": events.count_of_kind("initial_commit"),
        "final": events.count_of_kind("final_commit"),
    }


@dataclass(frozen=True)
class BatchFlushProfile:
    """How the batched coordinator's windows flushed in one run."""

    flushes: int
    transactions: int
    mean_duration: float
    max_participants: int

    @property
    def transactions_per_flush(self) -> float:
        """Mean commits amortised per flush (what batching exists for)."""
        return self.transactions / self.flushes if self.flushes else 0.0


def batch_flush_profile(events: EventLog) -> BatchFlushProfile:
    """Summarise the ``txn_batch_flush`` events of one run (retaining log)."""
    flushes = events.of_kind("txn_batch_flush")
    durations = [event.payload["duration"] for event in flushes]
    return BatchFlushProfile(
        flushes=len(flushes),
        transactions=sum(event.payload["transactions"] for event in flushes),
        mean_duration=mean(durations) if durations else 0.0,
        max_participants=max(
            (event.payload["participants"] for event in flushes), default=0
        ),
    )


@dataclass(frozen=True)
class AvailabilityTimeline:
    """Failure/recovery cycles of one run, off the event log.

    ``cycles`` holds, per completed failure,
    ``(edge, failed_at, recovered_at, records_replayed)``; a failure
    whose recovery never happened (run ended first) appears with
    ``recovered_at = None``.  Under replication, ``promotions`` holds
    ``(time, partition, from_edge, to_edge, records_caught_up)`` per
    warm failover, ``rejoins`` the ``(time, edge)`` of every restarted
    host re-enrolling as a standby, and ``log_ships`` the count of
    shipped WAL appends — all empty/zero at replication factor 1.
    """

    cycles: tuple[tuple[int, float, float | None, int], ...]
    checkpoints: int
    promotions: tuple[tuple[float, int, int, int, int], ...] = ()
    rejoins: tuple[tuple[float, int], ...] = ()
    log_ships: int = 0

    @property
    def count(self) -> int:
        return len(self.cycles)

    @property
    def total_downtime(self) -> float:
        """Summed downtime of the completed failure/recovery cycles."""
        return sum(
            recovered - failed
            for _, failed, recovered, _ in self.cycles
            if recovered is not None
        )

    def downtime_of(self, edge_id: int) -> float:
        """Downtime one edge accumulated across its completed cycles."""
        return sum(
            recovered - failed
            for edge, failed, recovered, _ in self.cycles
            if edge == edge_id and recovered is not None
        )

    @property
    def num_promotions(self) -> int:
        return len(self.promotions)

    def promotions_to(self, edge_id: int) -> int:
        """How many partitions failed over *onto* ``edge_id``."""
        return sum(1 for _, _, _, to_edge, _ in self.promotions if to_edge == edge_id)


@dataclass(frozen=True)
class TrafficProfile:
    """Open-loop arrivals and shedding of one run, off the event log.

    ``arrivals`` holds ``(time, stream, frames, admitted)`` per offered
    stream; ``sheds`` holds ``(time, stream, edge)`` per frame the load
    shedder degraded to an apology.
    """

    arrivals: tuple[tuple[float, str, int, bool], ...]
    sheds: tuple[tuple[float, str, int], ...]

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def admitted(self) -> int:
        return sum(1 for _, _, _, ok in self.arrivals if ok)

    @property
    def rejected(self) -> int:
        return self.offered - self.admitted

    @property
    def shed_frames(self) -> int:
        return len(self.sheds)

    def arrival_rate(self, t0: float, t1: float) -> float:
        """Offered streams/s inside the window ``[t0, t1)``."""
        if t1 <= t0:
            return 0.0
        inside = sum(1 for when, _, _, _ in self.arrivals if t0 <= when < t1)
        return inside / (t1 - t0)

    def sheds_by_edge(self) -> dict[int, int]:
        """Shed-frame counts per serving edge (which edges saturated)."""
        counts: dict[int, int] = {}
        for _, _, edge in self.sheds:
            counts[edge] = counts.get(edge, 0) + 1
        return counts


def traffic_profile(events: EventLog) -> TrafficProfile:
    """Collect the ``stream_arrival``/``frame_shed`` events of one run (retaining log)."""
    arrivals = tuple(
        (
            event.timestamp,
            event.payload["stream"],
            event.payload["frames"],
            event.payload["admitted"],
        )
        for event in events.of_kind("stream_arrival")
    )
    sheds = tuple(
        (event.timestamp, event.payload["stream"], event.payload["edge"])
        for event in events.of_kind("frame_shed")
    )
    return TrafficProfile(arrivals=arrivals, sheds=sheds)


@dataclass(frozen=True)
class GeoProfile:
    """WAN shipping and placement of one geo run, off the event log.

    ``ships`` holds ``(time, txn, policy, from_region, to_region,
    round_trips, bytes, duration)`` per ``wan_ship`` event — one per
    remote region a commit round touched (2PC phases, coordinator
    handoffs, and async write-set ships alike); ``placements`` holds
    ``(time, partition, from_region, to_region)`` per dominant-region
    partition move.
    """

    ships: tuple[tuple[float, str, str, int, int, int, int, float], ...]
    placements: tuple[tuple[float, int, int, int], ...]

    @property
    def ship_count(self) -> int:
        return len(self.ships)

    @property
    def wan_round_trips(self) -> int:
        return sum(round_trips for *_head, round_trips, _bytes, _d in self.ships)

    @property
    def wan_bytes(self) -> int:
        return sum(nbytes for *_head, nbytes, _duration in self.ships)

    @property
    def placement_moves(self) -> int:
        return len(self.placements)

    def ships_by_policy(self) -> dict[str, int]:
        """Ship counts per commit variant (mixed only across sweeps)."""
        counts: dict[str, int] = {}
        for _, _, policy, *_rest in self.ships:
            counts[policy] = counts.get(policy, 0) + 1
        return counts

    def bytes_between(self, from_region: int, to_region: int) -> int:
        """WAN bytes shipped over one directed region pair."""
        return sum(
            nbytes
            for _, _, _, src, dst, _, nbytes, _ in self.ships
            if src == from_region and dst == to_region
        )


def geo_profile(events: EventLog) -> GeoProfile:
    """Collect the ``wan_ship``/``partition_placed`` events of one run (retaining log)."""
    ships = tuple(
        (
            event.timestamp,
            event.payload["txn"],
            event.payload["policy"],
            event.payload["from_region"],
            event.payload["to_region"],
            event.payload["round_trips"],
            event.payload["bytes"],
            event.payload["duration"],
        )
        for event in events.of_kind("wan_ship")
    )
    placements = tuple(
        (
            event.timestamp,
            event.payload["partition"],
            event.payload["from_region"],
            event.payload["to_region"],
        )
        for event in events.of_kind("partition_placed")
    )
    return GeoProfile(ships=ships, placements=placements)


def availability_timeline(events: EventLog) -> AvailabilityTimeline:
    """Pair the ``edge_failed``/``edge_recovered`` events of one run (retaining log)."""
    recoveries: dict[int, list] = {}
    for event in events.of_kind("edge_recovered"):
        recoveries.setdefault(event.payload["edge"], []).append(event)
    cycles = []
    for event in events.of_kind("edge_failed"):
        edge = event.payload["edge"]
        pending = recoveries.get(edge, [])
        recovery = pending.pop(0) if pending else None
        cycles.append(
            (
                edge,
                event.timestamp,
                recovery.timestamp if recovery else None,
                recovery.payload["records_replayed"] if recovery else 0,
            )
        )
    promotions = tuple(
        (
            event.timestamp,
            event.payload["partition"],
            event.payload["from_edge"],
            event.payload["to_edge"],
            event.payload["records_caught_up"],
        )
        for event in events.of_kind("partition_promoted")
    )
    rejoins = tuple(
        (event.timestamp, event.payload["edge"])
        for event in events.of_kind("edge_rejoined")
    )
    return AvailabilityTimeline(
        cycles=tuple(cycles),
        checkpoints=events.count_of_kind("checkpoint"),
        promotions=promotions,
        rejoins=rejoins,
        log_ships=events.count_of_kind("log_shipped"),
    )
