"""Configuration of one cluster deployment (pure data, validated on build)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.failure import (
    FailureInjector,
    FailureSpec,
    ReshardSpec,
    normalize_failure_schedule,
    normalize_resharding,
    validate_failure_schedule,
)
from repro.cluster.replication import REPLICATION_MODES
from repro.cluster.router import ROUTER_POLICIES, RoutingError
from repro.core.adaptive import ADAPTATION_MODES
from repro.core.config import CroesusConfig
from repro.geo.system import GeoConfig
from repro.sim.engine import Server


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that defines one cluster deployment.

    Attributes
    ----------
    base:
        The per-edge Croesus configuration (models, thresholds, links,
        safety level, seed).  The master seed of the whole cluster.
    num_edges:
        Number of edge replicas.
    partitions_per_edge:
        Partitions each replica hosts; the shared store has
        ``num_edges * partitions_per_edge`` partitions in total.
    router_policy:
        Stream placement policy (see :data:`~repro.cluster.router.ROUTER_POLICIES`).
    hotspot_fraction:
        Skew of the ``"hotspot"`` policy (ignored by the others).
    frame_interval:
        Seconds between consecutive frames of one stream (1/30 ≈ 30 fps).
    cloud_servers:
        Number of concurrent validations the cloud can serve; ``None``
        models an infinite cloud (no validation ever queues, the
        original behaviour).  With a finite value, validated frames from
        every edge contend for the cloud and their waiting time is
        reported as ``cloud_queue_delay``.
    migration_high, migration_low:
        Hysteresis band of the ``"migrating"`` router: a stream migrates
        off its edge when the edge's observed utilization reaches
        ``migration_high``, and that edge's trigger re-arms only once
        utilization falls back to ``migration_low``.
    migration_window:
        Length (seconds) of the sliding window over which the migrating
        router observes edge utilization; a short window reacts to
        recent overload instead of the whole run's average.
    edge_discipline:
        Admission discipline of the edge servers: ``"fifo"`` (the
        default, arrival-ordered) or ``"priority"``, under which a
        frame's initial stage overtakes queued final stages — the
        fast-response path the engine's priority servers exist for.
    failure_schedule:
        Scheduled replica failures, as
        :class:`~repro.cluster.failure.FailureSpec` entries or plain
        ``(edge_id, fail_at, recover_at)`` tuples.  At ``fail_at`` the
        edge's streams re-route, its in-flight transactions resolve
        through the transaction-policy seam, and its partitions lose
        their volatile stores; at ``recover_at`` the replica replays
        its write-ahead logs and rejoins once the replay is done.
    checkpoint_interval_s:
        Period of the cluster-wide checkpointer; ``None`` (the default)
        takes no periodic checkpoints, so a recovery replays the whole
        log.  Shorter intervals buy faster recovery with more
        checkpoint work — the availability sweeps' axis.
    resharding:
        Scheduled runtime partition moves, as
        :class:`~repro.cluster.failure.ReshardSpec` entries or plain
        ``(at, partition_id, to_edge)`` tuples; each move is a
        checkpoint-copy plus a log-shipped tail.
    failback:
        When True, streams that failed over away from a crashed edge
        migrate *back* once it rejoins, paced by the migration
        machinery's hysteresis (a stream returns only when its interim
        host is hot and the recovered edge has headroom).  Off by
        default so existing seeded failure runs stay bit-for-bit.
    failure_hazard_rate:
        Expected failures per second of the probabilistic failure mode
        (see :class:`~repro.cluster.failure.FailureInjector`); ``None``
        (the default) uses only the explicit ``failure_schedule``.
        Mutually exclusive with a non-empty schedule.
    failure_outage_s:
        Outage length of each hazard-drawn failure (the gap between
        ``fail_at`` and the scheduled restart).
    record_frames:
        Selects what a run *retains*, never what it simulates: both
        settings run the same frame pipeline on the same timeline.
        True (the default) keeps one :class:`~repro.core.results.FrameTrace`
        per frame plus the full transfer history — the exact,
        memory-hungry retention every golden pin runs on.
        False folds per-frame results into streaming accumulators
        (:class:`~repro.cluster.results.FrameStatsAccumulator`) and
        gives the servers streaming wait statistics and capped interval
        records, so memory stays bounded at 10⁶+ frames.  Counts, sums and the metrics derived from them
        (means, rates, F-score, makespan, utilisation) are the same
        numbers either way; the one deviation is the latency
        percentiles, exact up to the quantile accumulator's 4096-sample
        buffer and within 1% beyond it.
    reference_engine:
        Run every server on the preserved pre-optimization
        :class:`~repro.sim.engine.ReferenceServer` implementation.  The
        scale-stress benchmark's yardstick; requires ``record_frames``.

    The commit policy of the consistency layer comes from
    ``base.transaction_policy`` (see
    :data:`repro.transactions.policy.TXN_POLICIES`).
    """

    base: CroesusConfig = field(default_factory=CroesusConfig)
    num_edges: int = 2
    partitions_per_edge: int = 1
    router_policy: str = "round-robin"
    hotspot_fraction: float = 0.75
    frame_interval: float = 1.0 / 30.0
    cloud_servers: int | None = None
    migration_high: float = 0.85
    migration_low: float = 0.5
    migration_window: float = 1.0
    edge_discipline: str = "fifo"
    failure_schedule: tuple[FailureSpec, ...] = ()
    checkpoint_interval_s: float | None = None
    resharding: tuple[ReshardSpec, ...] = ()
    failback: bool = False
    failure_hazard_rate: float | None = None
    failure_outage_s: float = 1.0
    record_frames: bool = True
    reference_engine: bool = False
    #: Replicas per partition: 1 (the default) keeps the single-owner
    #: behaviour bit-for-bit; ``k >= 2`` gives every partition ``k - 1``
    #: warm backups fed by log shipping, and a crashed primary's
    #: partitions fail over by *promotion* instead of checkpoint replay.
    replication_factor: int = 1
    #: Log-shipping ack discipline: ``"sync"`` (ack after all backups
    #: apply), ``"quorum"`` (ack after a majority), or ``"async"``
    #: (fire-and-forget with bounded staleness).  Inert at factor 1.
    replication_mode: str = "sync"
    #: Group-commit window (seconds) for each replica's local log
    #: appends; ``None`` keeps the flush-per-append discipline.
    wal_group_commit_window_s: float | None = None
    #: Online threshold adaptation mode (``"feedback"`` or ``"retune"``,
    #: see :data:`repro.core.adaptive.ADAPTATION_MODES`); ``None`` (the
    #: default) keeps the static ``(θL, θU)`` pair on every stream and
    #: builds no adaptation machinery at all.
    threshold_adaptation: str | None = None
    #: Simulated seconds between adaptation ticks (inert when
    #: ``threshold_adaptation`` is ``None``).
    adaptation_interval_s: float = 1.0
    #: F-score floor the per-stream controllers steer towards.
    adaptation_target_f: float = 0.8
    #: The geo tier: ``regions > 1`` splits the edges into that many
    #: WAN-linked regions (see :mod:`repro.geo`); 1 — the default —
    #: builds no geo machinery at all.
    geo: GeoConfig = field(default_factory=GeoConfig)

    def __post_init__(self) -> None:
        if self.reference_engine and not self.record_frames:
            raise ValueError(
                "reference_engine requires record_frames=True (the reference "
                "implementation is the full-recording pre-optimization path)"
            )
        if self.num_edges < 1:
            raise ValueError("num_edges must be at least 1")
        if self.partitions_per_edge < 1:
            raise ValueError("partitions_per_edge must be at least 1")
        if self.router_policy not in ROUTER_POLICIES:
            known = ", ".join(ROUTER_POLICIES)
            raise ValueError(
                f"unknown router_policy {self.router_policy!r}; known policies: {known}"
            )
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be in [0, 1]")
        if not self.frame_interval > 0:  # NaN included
            raise ValueError("frame_interval must be positive")
        if self.cloud_servers is not None and self.cloud_servers < 1:
            raise ValueError("cloud_servers must be at least 1 (or None for unbounded)")
        if not 0.0 < self.migration_low <= self.migration_high:
            raise ValueError(
                "need 0 < migration_low <= migration_high, got "
                f"({self.migration_low}, {self.migration_high})"
            )
        if not self.migration_window > 0:
            raise ValueError("migration_window must be positive")
        if self.edge_discipline not in Server.DISCIPLINES:
            known = ", ".join(Server.DISCIPLINES)
            raise ValueError(
                f"unknown edge_discipline {self.edge_discipline!r}; expected one of {known}"
            )
        # The schedules arrive as plain tuples from the spec layer; the
        # dataclass is frozen, so normalisation goes through __setattr__.
        object.__setattr__(
            self, "failure_schedule", normalize_failure_schedule(self.failure_schedule)
        )
        object.__setattr__(self, "resharding", normalize_resharding(self.resharding))
        validate_failure_schedule(self.failure_schedule, self.num_edges)
        for move in self.resharding:
            if move.partition_id >= self.num_partitions:
                raise ValueError(
                    f"resharding names partition {move.partition_id}, but there are "
                    f"{self.num_partitions} partitions"
                )
            if move.to_edge >= self.num_edges:
                raise ValueError(
                    f"resharding names edge {move.to_edge}, but there are {self.num_edges} edges"
                )
        if self.checkpoint_interval_s is not None and not self.checkpoint_interval_s > 0:
            raise ValueError(
                f"checkpoint_interval_s must be positive (or None), got "
                f"{self.checkpoint_interval_s}"
            )
        if self.failure_hazard_rate is not None:
            if self.num_edges < 2:
                raise ValueError(
                    "failure_hazard_rate needs at least 2 edges "
                    "(streams must have a live edge to fail over to)"
                )
            # Range/exclusivity checks (including outage_s) live in the
            # injector, which both failure modes flow through.
            FailureInjector(
                schedule=self.failure_schedule,
                hazard_rate=self.failure_hazard_rate,
                outage_s=self.failure_outage_s,
            )
        elif not self.failure_outage_s > 0:
            raise ValueError(
                f"failure_outage_s must be positive, got {self.failure_outage_s}"
            )
        if self.replication_mode not in REPLICATION_MODES:
            known = ", ".join(REPLICATION_MODES)
            raise ValueError(
                f"unknown replication_mode {self.replication_mode!r}; known modes: {known}"
            )
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be at least 1, got {self.replication_factor}"
            )
        if self.replication_factor > self.num_edges:
            raise ValueError(
                f"replication_factor {self.replication_factor} exceeds the "
                f"{self.num_edges} edge(s) available (backups live on distinct edges)"
            )
        if self.replication_factor > 1 and self.resharding:
            raise ValueError(
                "replication and scheduled re-sharding are mutually exclusive "
                "(a promotion re-homes partitions through its own protocol)"
            )
        if self.wal_group_commit_window_s is not None and not self.wal_group_commit_window_s > 0:
            raise ValueError(
                f"wal_group_commit_window_s must be positive (or None), got "
                f"{self.wal_group_commit_window_s}"
            )
        if (
            self.threshold_adaptation is not None
            and self.threshold_adaptation not in ADAPTATION_MODES
        ):
            known = ", ".join(ADAPTATION_MODES)
            raise ValueError(
                f"unknown threshold_adaptation {self.threshold_adaptation!r}; "
                f"expected one of {known}"
            )
        if not self.adaptation_interval_s > 0:
            raise ValueError(
                f"adaptation_interval_s must be positive, got {self.adaptation_interval_s}"
            )
        if not 0.0 < self.adaptation_target_f <= 1.0:
            raise ValueError(
                f"adaptation_target_f must be in (0, 1], got {self.adaptation_target_f}"
            )
        # How a multi-region deployment composes with the other axes (the
        # geo axes themselves are GeoConfig's to check).
        regions = self.geo.regions
        if regions > 1:
            if self.num_edges % regions != 0:
                raise ValueError(
                    f"num_edges ({self.num_edges}) must split evenly into {regions} regions"
                )
            if self.router_policy != "round-robin":
                raise RoutingError(
                    "regions > 1 places streams region-first, so the router must "
                    f"be 'round-robin'; got {self.router_policy!r}"
                )
            if self.base.transaction_policy != "immediate-2pc":
                raise ValueError(
                    "regions > 1 stacks the cross-region commit variants on "
                    "immediate-2pc; got transaction_policy="
                    f"{self.base.transaction_policy!r}"
                )
            if self.replication_factor > 1:
                raise ValueError("regions > 1 does not replicate partitions yet")
            if self.failure_schedule or self.failure_hazard_rate is not None:
                raise ValueError("regions > 1 does not support failure injection yet")
            if self.resharding:
                raise ValueError(
                    "scheduled re-sharding conflicts with geo placement; drop one"
                )
            if not self.record_frames:
                raise ValueError("regions > 1 requires record_frames=True")
            if self.reference_engine:
                raise ValueError("regions > 1 does not run on the reference engine")

    @property
    def num_partitions(self) -> int:
        """Total partitions of the shared store."""
        return self.num_edges * self.partitions_per_edge

    @property
    def seed(self) -> int:
        """Master seed of the cluster (the base config's seed)."""
        return self.base.seed
