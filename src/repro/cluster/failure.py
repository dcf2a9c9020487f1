"""Replica failure/recovery and partition re-sharding as engine events.

The availability scenarios are driven by two declarative schedules on
:class:`~repro.cluster.config.ClusterConfig`:

* a **failure schedule** — :class:`FailureSpec` entries naming which
  edge fails when and when its host restarts.  At ``fail_at`` the
  replica's streams re-route through the migration machinery, its
  in-flight transactions resolve through the transaction-policy seam,
  and its partitions' volatile stores are lost; at ``recover_at`` the
  restarted replica replays each partition's write-ahead log from the
  last checkpoint and only *rejoins* once the replay is done — the
  replay cost (:func:`recovery_time`) is what the checkpoint-interval
  sweeps measure.
* a **re-sharding schedule** — :class:`ReshardSpec` entries moving one
  partition to another edge at runtime by checkpoint-copy plus a
  log-shipped tail (:meth:`~repro.storage.partition.PartitionedStore.transfer_partition`).

Both schedules are plain tuples of numbers at the
:class:`~repro.experiments.spec.ScenarioSpec` level, so failure sweeps
are ordinary sweeps.  The :class:`FailureInjector` decides which
failures a run executes: either the explicit schedule as given, or — in
its seeded hazard-rate mode — failures drawn probabilistically from an
exponential hazard.  Either way the result is a plain schedule executed
by the cluster's failure processes, so a seeded failure run is exactly
as reproducible as a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Fixed restart overhead of a recovering replica (seconds).
RECOVERY_BASE_SECONDS = 0.02

#: Cost of restoring one checkpointed key into the store (seconds).
CHECKPOINT_RESTORE_SECONDS_PER_KEY = 2e-5

#: Cost of re-applying one write-ahead-log record (seconds).  Replaying
#: a record re-runs the write against the store (locks, versioning), so
#: it is two orders of magnitude dearer than bulk-loading a checkpointed
#: key — which is why checkpoint frequency is worth sweeping.
REPLAY_SECONDS_PER_RECORD = 2e-3

#: Failure-detector timeout (seconds): how long backups wait for missed
#: heartbeats before starting an election.  This is the floor under a
#: warm failover's downtime — promotion cannot beat detection.
FAILURE_DETECT_SECONDS = 0.005


@dataclass(frozen=True)
class FailureSpec:
    """One scheduled replica failure: fail at, restart at."""

    edge_id: int
    fail_at: float
    recover_at: float

    def __post_init__(self) -> None:
        if self.edge_id < 0:
            raise ValueError(f"edge_id must be non-negative, got {self.edge_id}")
        if self.fail_at < 0:
            raise ValueError(f"fail_at must be non-negative, got {self.fail_at}")
        if self.recover_at <= self.fail_at:
            raise ValueError(
                f"recover_at must be after fail_at, got ({self.fail_at}, {self.recover_at})"
            )

    def to_tuple(self) -> tuple[int, float, float]:
        return (self.edge_id, self.fail_at, self.recover_at)


@dataclass(frozen=True)
class ReshardSpec:
    """One scheduled partition move: at ``at``, ``partition_id`` → ``to_edge``."""

    at: float
    partition_id: int
    to_edge: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.partition_id < 0:
            raise ValueError(f"partition_id must be non-negative, got {self.partition_id}")
        if self.to_edge < 0:
            raise ValueError(f"to_edge must be non-negative, got {self.to_edge}")

    def to_tuple(self) -> tuple[float, int, int]:
        return (self.at, self.partition_id, self.to_edge)


def normalize_failure_schedule(
    schedule: Iterable[FailureSpec | Sequence[float]],
) -> tuple[FailureSpec, ...]:
    """Coerce a spec-level schedule (tuples/lists) into :class:`FailureSpec` s."""
    specs: list[FailureSpec] = []
    for entry in schedule:
        if isinstance(entry, FailureSpec):
            specs.append(entry)
            continue
        if len(entry) != 3:
            raise ValueError(
                f"a failure entry must be (edge_id, fail_at, recover_at), got {entry!r}"
            )
        specs.append(
            FailureSpec(edge_id=int(entry[0]), fail_at=float(entry[1]), recover_at=float(entry[2]))
        )
    return tuple(specs)


def normalize_resharding(
    schedule: Iterable[ReshardSpec | Sequence[float]],
) -> tuple[ReshardSpec, ...]:
    """Coerce a spec-level schedule (tuples/lists) into :class:`ReshardSpec` s."""
    specs: list[ReshardSpec] = []
    for entry in schedule:
        if isinstance(entry, ReshardSpec):
            specs.append(entry)
            continue
        if len(entry) != 3:
            raise ValueError(
                f"a resharding entry must be (at, partition_id, to_edge), got {entry!r}"
            )
        specs.append(
            ReshardSpec(at=float(entry[0]), partition_id=int(entry[1]), to_edge=int(entry[2]))
        )
    return tuple(specs)


def validate_failure_schedule(schedule: Sequence[FailureSpec], num_edges: int) -> None:
    """Config-time checks: known edges, one failure at a time.

    Failure windows may not overlap — across *any* pair of edges — so
    there is always a live edge to fail streams over to and at most one
    replica is ever mid-recovery.
    """
    if not schedule:
        return
    if num_edges < 2:
        raise ValueError(
            "a failure schedule needs at least 2 edges "
            "(streams must have a live edge to fail over to)"
        )
    for spec in schedule:
        if spec.edge_id >= num_edges:
            raise ValueError(
                f"failure names edge {spec.edge_id}, but there are {num_edges} edges"
            )
    ordered = sorted(schedule, key=lambda spec: spec.fail_at)
    for earlier, later in zip(ordered, ordered[1:]):
        if later.fail_at < earlier.recover_at:
            raise ValueError(
                f"overlapping failures: {earlier.to_tuple()} and {later.to_tuple()} "
                "(one failure at a time)"
            )


def recovery_time(keys_restored: int, records_replayed: int) -> float:
    """Replay duration of one recovery (the knob checkpoint intervals turn).

    Restart overhead plus a per-key checkpoint-restore cost plus a
    per-record log-replay cost: frequent checkpoints shift work from the
    expensive replay term into the cheap restore term, which is exactly
    the trade-off ``examples/failure_recovery.py`` sweeps.
    """
    return (
        RECOVERY_BASE_SECONDS
        + keys_restored * CHECKPOINT_RESTORE_SECONDS_PER_KEY
        + records_replayed * REPLAY_SECONDS_PER_RECORD
    )


@dataclass(frozen=True)
class FailureInjector:
    """Produces the failure schedule a cluster run executes.

    Two modes:

    * **Scheduled** (``hazard_rate is None``): the explicit
      ``schedule`` passes through untouched — the declarative mode the
      availability scenarios have always used.
    * **Hazard** (``hazard_rate`` set): failures are drawn
      probabilistically from a seeded exponential hazard.  Inter-failure
      gaps are ``Exp(hazard_rate)``, the failing edge is uniform over
      the cluster, and every outage lasts ``outage_s`` before the
      restart begins.  The hazard clock pauses during an outage (one
      failure at a time, matching :func:`validate_failure_schedule`),
      and no failure fires at or after ``horizon``.

    Draws come from a dedicated named RNG stream, so enabling the
    hazard never perturbs the seeded draws of the frame pipeline — and
    a run with ``hazard_rate=None`` performs no draws at all.
    """

    schedule: tuple[FailureSpec, ...] = ()
    hazard_rate: float | None = None
    outage_s: float = 1.0

    def __post_init__(self) -> None:
        if self.hazard_rate is not None:
            if not self.hazard_rate > 0:  # NaN included
                raise ValueError(
                    f"hazard_rate must be positive (or None), got {self.hazard_rate}"
                )
            if self.schedule:
                raise ValueError(
                    "hazard_rate and an explicit failure schedule are mutually "
                    "exclusive (one failure source per run)"
                )
        if not self.outage_s > 0:
            raise ValueError(f"outage_s must be positive, got {self.outage_s}")

    def draw_schedule(
        self, num_edges: int, horizon: float, rng: np.random.Generator
    ) -> tuple[FailureSpec, ...]:
        """The schedule of one run: pass-through or seeded hazard draws."""
        if self.hazard_rate is None:
            return self.schedule
        if horizon <= 0:
            return ()
        specs: list[FailureSpec] = []
        clock = 0.0
        while True:
            clock += float(rng.exponential(1.0 / self.hazard_rate))
            if clock >= horizon:
                break
            edge_id = int(rng.integers(num_edges))
            specs.append(
                FailureSpec(edge_id=edge_id, fail_at=clock, recover_at=clock + self.outage_s)
            )
            clock += self.outage_s
        schedule = tuple(specs)
        validate_failure_schedule(schedule, num_edges)
        return schedule


@dataclass(frozen=True)
class FailureRecord:
    """One completed failure/recovery cycle of a cluster run."""

    edge_id: int
    failed_at: float
    recovered_at: float  #: instant the replica rejoined (replay finished)
    downtime: float  #: ``recovered_at - failed_at``
    recovery_time: float  #: checkpoint-restore + WAL-replay duration
    records_replayed: int
    transactions_replayed: int
    txns_aborted: int  #: in-flight transactions the failure aborted
    streams_migrated: int


@dataclass(frozen=True)
class PromotionRecord:
    """One warm failover: a backup promoted to primary for a partition.

    Under replication a crashed primary's partition does not wait for
    checkpoint restore + log replay — the most-caught-up backup is
    elected (highest shipped LSN, ties to the lowest edge id) and only
    the gap between its applied LSN and the surviving log tail is caught
    up.  ``promoted_at - failed_at`` is the partition's measured
    unavailability window.
    """

    partition_id: int
    from_edge: int  #: the crashed primary
    to_edge: int  #: the elected backup
    failed_at: float
    promoted_at: float
    applied_lsn: int  #: the winner's shipped LSN at election time
    records_caught_up: int  #: log-tail gap replayed during promotion
    catchup_time: float  #: seconds spent replaying the gap


@dataclass(frozen=True)
class ReshardRecord:
    """One completed runtime partition move."""

    time: float
    partition_id: int
    from_edge: int
    to_edge: int
    keys_copied: int
    records_shipped: int
