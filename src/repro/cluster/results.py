"""Results of one cluster run: per-edge metrics, migration records, the
streaming per-frame accumulator and the aggregated :class:`ClusterRunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

from repro.analysis.streaming import QuantileAccumulator
from repro.cluster.failure import FailureRecord, ReshardRecord
from repro.core.results import FrameAggregate, LatencyBreakdown, RunResult
from repro.detection.metrics import AccuracyReport
from repro.traffic.source import TrafficStats
from repro.transactions.ms_sr import ControllerStats
from repro.transactions.policy import PolicyStats


@dataclass(frozen=True)
class EdgeMetrics:
    """Per-edge outcome of one cluster run.

    Queue-delay statistics cover every admission to the edge's queue —
    each frame queues twice, once for its initial stage and once for
    its final stage — so ``queue_jobs`` is about twice
    ``frames_processed``.
    """

    edge_id: int
    machine_name: str
    owned_partitions: tuple[int, ...]
    streams: tuple[str, ...]
    frames_processed: int
    queue_jobs: int
    busy_time: float
    utilization: float
    mean_queue_delay: float
    max_queue_delay: float


@dataclass(frozen=True)
class MigrationRecord:
    """One stream re-routed at runtime: by the ``"migrating"`` policy
    (``reason=None``), off a failed edge (``"edge_failed"``) or back to
    its recovered home (``"edge_recovered"``)."""

    time: float
    stream: str
    from_edge: int
    to_edge: int
    utilization: float
    reason: str | None = None


class FrameStatsAccumulator:
    """Streaming per-frame aggregates of a ``record_frames=False`` run.

    Such a run folds every served frame into this accumulator instead of
    retaining a :class:`~repro.core.results.FrameTrace`, so run memory
    stays bounded at 10⁶+ frames.  Counts, sums, maxima and the
    derived means/rates are exact; the final-latency percentiles come
    from a :class:`~repro.analysis.streaming.QuantileAccumulator` — exact
    nearest-rank up to its buffer, within 1% relative error beyond it.
    """

    __slots__ = (
        "frames",
        "sent_to_cloud",
        "bytes_sent",
        "latency_sums",
        "true_positives",
        "false_positives",
        "false_negatives",
        "transactions",
        "corrections",
        "apologies",
        "cloud_queue_delay_sum",
        "cloud_queued",
        "max_cloud_queue_delay",
        "final_latency_ms",
    )

    #: Order of a frame's unboxed latency tuple: LatencyBreakdown's fields.
    LATENCY_COMPONENTS = tuple(component.name for component in fields(LatencyBreakdown))

    def __init__(self) -> None:
        self.frames = 0
        self.sent_to_cloud = 0
        self.bytes_sent = 0
        self.latency_sums = [0.0] * len(self.LATENCY_COMPONENTS)
        self.true_positives = 0
        self.false_positives = 0
        self.false_negatives = 0
        self.transactions = 0
        self.corrections = 0
        self.apologies = 0
        self.cloud_queue_delay_sum = 0.0
        #: Validated frames that waited for a cloud server, and the longest wait.
        self.cloud_queued = 0
        self.max_cloud_queue_delay = 0.0
        self.final_latency_ms = QuantileAccumulator()

    def record_frame(
        self,
        latency: tuple[float, ...],
        accuracy: AccuracyReport,
        sent_to_cloud: bool,
        bytes_sent: int,
        transactions: int,
        corrections: int,
        apologies: int,
    ) -> None:
        """Fold one served frame's outcome into the running aggregates.

        ``latency`` holds the frame's components as bare floats in
        :attr:`LATENCY_COMPONENTS` order (an unboxed
        :class:`LatencyBreakdown`); the summation order below matches
        :attr:`LatencyBreakdown.final_latency` term for term, so each
        frame's final latency is bit-identical to the one a retained
        trace would report.
        """
        (
            edge_transfer,
            edge_detection,
            initial_txn,
            cloud_transfer,
            cloud_detection,
            final_txn,
            queue_delay,
            final_queue_delay,
            cloud_queue_delay,
            commit_protocol,
            commit_overlap_saved,
        ) = latency
        self.frames += 1
        if sent_to_cloud:
            self.sent_to_cloud += 1
            self.cloud_queue_delay_sum += cloud_queue_delay
            if cloud_queue_delay > 0:
                self.cloud_queued += 1
                if cloud_queue_delay > self.max_cloud_queue_delay:
                    self.max_cloud_queue_delay = cloud_queue_delay
        self.bytes_sent += bytes_sent
        # Unrolled over LATENCY_COMPONENTS order: one add per component.
        sums = self.latency_sums
        sums[0] += edge_transfer
        sums[1] += edge_detection
        sums[2] += initial_txn
        sums[3] += cloud_transfer
        sums[4] += cloud_detection
        sums[5] += final_txn
        sums[6] += queue_delay
        sums[7] += final_queue_delay
        sums[8] += cloud_queue_delay
        sums[9] += commit_protocol
        sums[10] += commit_overlap_saved
        self.true_positives += accuracy.true_positives
        self.false_positives += accuracy.false_positives
        self.false_negatives += accuracy.false_negatives
        self.transactions += transactions
        self.corrections += corrections
        self.apologies += apologies
        # Same association order as LatencyBreakdown.final_latency
        # (initial_latency first), so the float sum is bit-identical.
        final_latency = (
            edge_transfer + queue_delay + edge_detection + initial_txn
        ) + cloud_transfer + cloud_queue_delay + cloud_detection + final_queue_delay + final_txn + commit_protocol
        self.final_latency_ms.add(final_latency * 1000.0)

    def aggregate(self) -> FrameAggregate:
        """The folded frames as the run's one frame aggregate."""
        frames, sent = self.frames, self.sent_to_cloud
        return FrameAggregate(
            f_score=AccuracyReport(
                self.true_positives, self.false_positives, self.false_negatives
            ).f_score,
            bandwidth_utilization=sent / frames if frames else 0.0,
            average_latency=(
                LatencyBreakdown(*(total / frames for total in self.latency_sums))
                if frames
                else LatencyBreakdown()
            ),
            latency_percentiles={
                "p50_ms": self.final_latency_ms.percentile(50.0),
                "p95_ms": self.final_latency_ms.percentile(95.0),
                "p99_ms": self.final_latency_ms.percentile(99.0),
            },
            cloud_validations=sent,
            cloud_queued=self.cloud_queued,
            mean_cloud_queue_delay=self.cloud_queue_delay_sum / sent if sent else 0.0,
            max_cloud_queue_delay=self.max_cloud_queue_delay,
        )


@dataclass
class ClusterRunResult:
    """Aggregated outcome of one multi-stream cluster run.

    Each measured fact is kept once; the deployment's configuration is
    not echoed (the caller holds it).  ``placements`` holds the router's
    placement-time assignments; when the ``"migrating"`` policy
    re-routed streams mid-run, every move is in ``migrations`` and
    ``final_placements`` gives the end state.

    The frame metrics (``f_score`` through ``max_cloud_queue_delay``) are
    the fields of the run sink's
    :class:`~repro.core.results.FrameAggregate`, whichever sink ran:
    ``latency_percentiles`` holds p50/p95/p99 of per-frame final latency
    in milliseconds (the tail is what overload control exists to bound),
    and the cloud-queue figures cover validated frames only (0 when
    nothing was validated or the cloud is unbounded).

    The optional subsystems hand over their report fields as built:
    ``replication`` is :meth:`~repro.cluster.replication.ReplicationManager.summary`,
    ``adaptation`` is :meth:`~repro.core.adaptive.AdaptationManager.report_fields`
    and ``geo`` is :meth:`~repro.geo.GeoTier.summary`; each is None when
    its subsystem was off.
    """

    placements: dict[str, int]
    per_stream: dict[str, RunResult]
    edges: list[EdgeMetrics]
    makespan: float
    stats: ControllerStats
    f_score: float
    bandwidth_utilization: float
    average_latency: LatencyBreakdown
    latency_percentiles: dict[str, float]
    cloud_validations: int
    cloud_queued: int
    mean_cloud_queue_delay: float
    max_cloud_queue_delay: float
    total_transactions: int = 0
    cross_edge_transactions: int = 0
    multi_partition_transactions: int = 0
    migrations: tuple[MigrationRecord, ...] = ()
    policy_stats: PolicyStats = field(default_factory=PolicyStats)
    failures: tuple[FailureRecord, ...] = ()
    reshards: tuple[ReshardRecord, ...] = ()
    downtime_s: float = 0.0
    recovery_time_s: float = 0.0
    wal_records_replayed: int = 0
    transactions_replayed: int = 0
    txns_aborted_by_failure: int = 0
    checkpoints: int = 0
    #: Offered/admitted/shed accounting of an open-loop run (None for
    #: the closed-loop path, which serves everything it is given).
    traffic: TrafficStats | None = None
    #: ``(transactions, duration)`` of every batched-coordinator flush.
    batch_flushes: tuple[tuple[int, float], ...] = ()
    #: The run's ``replication`` report block (None at factor 1).
    replication: dict[str, Any] | None = None
    #: The run's adaptation report fields (None under static thresholds).
    adaptation: dict[str, Any] | None = None
    #: The run's ``geo`` report block (None unless the cluster spans
    #: several regions).
    geo: dict[str, Any] | None = None

    @property
    def final_placements(self) -> dict[str, int]:
        """Stream placements after any runtime migrations."""
        placements = dict(self.placements)
        for record in self.migrations:
            placements[record.stream] = record.to_edge
        return placements

    @property
    def num_frames(self) -> int:
        """Frames processed across all streams."""
        return sum(result.num_frames for result in self.per_stream.values())

    @property
    def throughput_fps(self) -> float:
        """Cluster-wide frames per second of simulated time."""
        return self.num_frames / self.makespan if self.makespan > 0 else 0.0

    @property
    def cross_partition_fraction(self) -> float:
        """Fraction of transactions that touched a remote replica's partition."""
        if not self.total_transactions:
            return 0.0
        return self.cross_edge_transactions / self.total_transactions

    @property
    def goodput_fps(self) -> float:
        """Frames fully served per second of simulated time.

        For a closed-loop run this equals :attr:`throughput_fps`; in an
        open-loop run shed and rejected frames are excluded — goodput is
        what the clients actually got, not what the system touched.
        """
        if self.makespan <= 0:
            return 0.0
        if self.traffic is None:
            return self.throughput_fps
        return self.traffic.completed_frames / self.makespan

    def traffic_summary(self) -> dict[str, float]:
        """The report's ``traffic`` block: offered-vs-admitted load,
        goodput, shedding and tail latency.  Empty when the run was
        closed-loop.
        """
        if self.traffic is None:
            return {}
        span = self.makespan
        percentiles = self.latency_percentiles
        return {
            "offered_streams": float(self.traffic.offered_streams),
            "admitted_streams": float(self.traffic.admitted_streams),
            "rejected_streams": float(self.traffic.rejected_streams),
            "offered_frames": float(self.traffic.offered_frames),
            "admitted_frames": float(self.traffic.admitted_frames),
            "shed_frames": float(self.traffic.shed_frames),
            "completed_frames": float(self.traffic.completed_frames),
            "offered_load_fps": self.traffic.offered_frames / span if span > 0 else 0.0,
            "admitted_load_fps": self.traffic.admitted_frames / span if span > 0 else 0.0,
            "goodput_fps": self.goodput_fps,
            "shed_rate": self.traffic.shed_rate,
            "rejection_rate": self.traffic.rejection_rate,
            "apologies_spent": float(self.traffic.apologies_spent),
            "p50_latency_ms": percentiles["p50_ms"],
            "p95_latency_ms": percentiles["p95_ms"],
            "p99_latency_ms": percentiles["p99_ms"],
        }

    @staticmethod
    def traffic_text(traffic: dict[str, float]) -> list[str]:
        """The ``traffic`` block as the cluster command's text lines."""
        lines = [
            f"open-loop traffic: {traffic['offered_streams']:.0f} streams offered "
            f"({traffic['offered_load_fps']:.2f} fps), "
            f"{traffic['admitted_streams']:.0f} admitted, "
            f"{traffic['rejected_streams']:.0f} rejected — "
            f"goodput {traffic['goodput_fps']:.2f} fps"
        ]
        if traffic["shed_frames"]:
            lines.append(
                f"load shedding: {traffic['shed_frames']:.0f} frames degraded to "
                f"apologies ({traffic['shed_rate']:.1%} of admitted frames)"
            )
        lines.append(
            f"final latency: p50 {traffic['p50_latency_ms']:.0f} ms, "
            f"p95 {traffic['p95_latency_ms']:.0f} ms, "
            f"p99 {traffic['p99_latency_ms']:.0f} ms"
        )
        return lines

    @property
    def mean_queue_delay(self) -> float:
        """Mean queue delay per admission, over all edges' queues.

        Every frame is admitted twice (initial and final stage), so this
        averages over ``2 × num_frames`` waits cluster-wide.
        """
        jobs = sum(edge.queue_jobs for edge in self.edges)
        if not jobs:
            return 0.0
        weighted = sum(edge.mean_queue_delay * edge.queue_jobs for edge in self.edges)
        return weighted / jobs
