"""Run results: per-frame traces and aggregate metrics.

The quantities here mirror what the paper's figures report:

* the Figure 2 latency breakdown — edge transfer, edge detection, cloud
  transfer, cloud detection, initial transaction, final transaction;
* bandwidth utilisation (fraction of frames sent to the cloud);
* the F-score of what the client observed against the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import NamedTuple

from repro.detection.labels import LabelRow, LabelSet, ViewRow
from repro.detection.metrics import AccuracyReport, aggregate_reports


@dataclass(slots=True, unsafe_hash=True)
class LatencyBreakdown:
    """Latency components (seconds) of one frame, or their averages.

    Immutable by convention and hashed by value (one is built per
    recorded frame, and a frozen ``__init__`` costs ~3x).

    ``queue_delay`` is the time a frame waited in an edge node's input
    queue before the edge started processing it, and
    ``final_queue_delay`` the wait before its final sections ran once
    the corrected labels were back.  Single-edge runs always report 0
    for both; in a :class:`~repro.cluster.system.ClusterSystem` run they
    make overload visible in the latency of every queued frame.

    ``cloud_queue_delay`` is the time a validated frame queued at the
    cloud before a cloud server picked it up.  It is 0 unless the
    deployment caps the cloud's capacity
    (:attr:`~repro.cluster.config.ClusterConfig.cloud_servers`), in
    which case concurrent validations contend for the cloud just like
    frames contend for their edge.

    ``commit_protocol`` is the coordinator messaging time the frame's
    transactions were charged by the active transaction policy (always 0
    under the default immediate policy, whose commits are free), and
    ``commit_overlap_saved`` the prepare time the ``async-2pc`` policy
    hid under the frame's cloud round trip — informational, it is *not*
    part of :attr:`final_latency`.
    """

    edge_transfer: float = 0.0
    edge_detection: float = 0.0
    initial_txn: float = 0.0
    cloud_transfer: float = 0.0
    cloud_detection: float = 0.0
    final_txn: float = 0.0
    queue_delay: float = 0.0
    final_queue_delay: float = 0.0
    cloud_queue_delay: float = 0.0
    commit_protocol: float = 0.0
    commit_overlap_saved: float = 0.0

    @property
    def initial_latency(self) -> float:
        """Time until the client has the initial (edge) response."""
        return self.edge_transfer + self.queue_delay + self.edge_detection + self.initial_txn

    @property
    def final_latency(self) -> float:
        """Time until the client has the final (corrected) response."""
        return (
            self.initial_latency
            + self.cloud_transfer
            + self.cloud_queue_delay
            + self.cloud_detection
            + self.final_queue_delay
            + self.final_txn
            + self.commit_protocol
        )

    @property
    def cloud_total(self) -> float:
        """Cloud-side portion of the final latency."""
        return self.cloud_transfer + self.cloud_queue_delay + self.cloud_detection

    def to_dict(self) -> dict[str, float]:
        """Component name -> seconds, in breakdown order.

        The canonical serialisation of a breakdown — the experiment
        layer's ``RunReport`` derives its millisecond latency schema
        from these names.
        """
        return {
            "edge_transfer": self.edge_transfer,
            "edge_detection": self.edge_detection,
            "initial_txn": self.initial_txn,
            "cloud_transfer": self.cloud_transfer,
            "cloud_detection": self.cloud_detection,
            "final_txn": self.final_txn,
            "queue_delay": self.queue_delay,
            "final_queue_delay": self.final_queue_delay,
            "cloud_queue_delay": self.cloud_queue_delay,
            "commit_protocol": self.commit_protocol,
            "commit_overlap_saved": self.commit_overlap_saved,
        }

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """All components multiplied by ``factor``."""
        return LatencyBreakdown(
            edge_transfer=self.edge_transfer * factor,
            edge_detection=self.edge_detection * factor,
            initial_txn=self.initial_txn * factor,
            cloud_transfer=self.cloud_transfer * factor,
            cloud_detection=self.cloud_detection * factor,
            final_txn=self.final_txn * factor,
            queue_delay=self.queue_delay * factor,
            final_queue_delay=self.final_queue_delay * factor,
            cloud_queue_delay=self.cloud_queue_delay * factor,
            commit_protocol=self.commit_protocol * factor,
            commit_overlap_saved=self.commit_overlap_saved * factor,
        )

    @staticmethod
    def average(breakdowns: list["LatencyBreakdown"]) -> "LatencyBreakdown":
        """Component-wise mean of a list of breakdowns."""
        if not breakdowns:
            return LatencyBreakdown()
        return LatencyBreakdown(
            edge_transfer=mean(b.edge_transfer for b in breakdowns),
            edge_detection=mean(b.edge_detection for b in breakdowns),
            initial_txn=mean(b.initial_txn for b in breakdowns),
            cloud_transfer=mean(b.cloud_transfer for b in breakdowns),
            cloud_detection=mean(b.cloud_detection for b in breakdowns),
            final_txn=mean(b.final_txn for b in breakdowns),
            queue_delay=mean(b.queue_delay for b in breakdowns),
            final_queue_delay=mean(b.final_queue_delay for b in breakdowns),
            cloud_queue_delay=mean(b.cloud_queue_delay for b in breakdowns),
            commit_protocol=mean(b.commit_protocol for b in breakdowns),
            commit_overlap_saved=mean(b.commit_overlap_saved for b in breakdowns),
        )


@dataclass(slots=True, unsafe_hash=True)
class FrameTrace:
    """Everything recorded about one processed frame (immutable by
    convention, like its :class:`LatencyBreakdown`).

    The frame's edge labels ``Le`` and cloud labels ``Lc`` are kept as
    packed :class:`~repro.detection.labels.LabelRow`\\ s, not as a
    ``Detection`` and a ``BoundingBox`` per label: a recording run keeps
    every frame's labels, and almost nothing reads them back.  What the
    client observed is kept once: as ``Le``'s own row when the view is
    ``Le``, as a :class:`~repro.detection.labels.ViewRow` of picks into
    the two rows when the frame body passed one (a subset of ``Le``, or a
    validated view of ``Le`` / ``Lc`` labels), and packed only when it is
    some other set (the baselines').  :attr:`edge_labels`,
    :attr:`cloud_labels` and :attr:`observed_labels` render an equal
    :class:`LabelSet` on every read, so a reader that needs one twice
    keeps what it rendered.  :meth:`from_labels` builds a trace from live
    label sets.  Two traces compare (and hash) their label floats bit for
    bit, through the rows: labels that differ only by ``-0.0`` against
    ``0.0`` make unequal traces, though the rendered sets are equal.
    """

    frame_id: int
    edge_row: LabelRow
    cloud_row: LabelRow
    observed_row: LabelRow | ViewRow
    sent_to_cloud: bool
    latency: LatencyBreakdown
    accuracy: AccuracyReport
    transactions_triggered: int = 0
    corrections: int = 0
    apologies: int = 0
    frame_bytes_sent: int = 0
    #: Edge that processed the frame: 0 on the single-edge deployment,
    #: ``None`` for baselines that run no edge pipeline.
    edge_id: int | None = None

    @classmethod
    def from_labels(
        cls,
        frame_id: int,
        edge_labels: LabelSet,
        cloud_labels: LabelSet,
        observed_labels: LabelSet | ViewRow,
        sent_to_cloud: bool,
        latency: LatencyBreakdown,
        accuracy: AccuracyReport,
        **counts: int | None,
    ) -> "FrameTrace":
        """A trace of live label sets, packed (``counts``: the remaining
        fields, by keyword).  A set passed twice — the observed view is
        often ``Le`` itself — is packed once and its row shared; an
        observed :class:`~repro.detection.labels.ViewRow` is kept as it is."""
        edge_row = LabelRow.pack(edge_labels)
        cloud_row = edge_row if cloud_labels is edge_labels else LabelRow.pack(cloud_labels)
        if observed_labels is edge_labels:
            observed_row = edge_row
        elif type(observed_labels) is ViewRow:
            observed_row = observed_labels
        elif observed_labels is cloud_labels:
            observed_row = cloud_row
        else:
            observed_row = LabelRow.pack(observed_labels)
        return cls(
            frame_id, edge_row, cloud_row, observed_row, sent_to_cloud, latency, accuracy, **counts
        )

    @property
    def edge_labels(self) -> LabelSet:
        """``Le``, the edge model's filtered labels (rendered)."""
        return self.edge_row.render()

    @property
    def cloud_labels(self) -> LabelSet:
        """``Lc``, the cloud model's labels (rendered)."""
        return self.cloud_row.render()

    @property
    def observed_labels(self) -> LabelSet:
        """What the client ended up seeing (rendered; a view of picks
        renders only the picked entries of ``Le`` and ``Lc``)."""
        row = self.observed_row
        if type(row) is ViewRow:
            return row.render(self.edge_row, self.cloud_row)
        return row.render()


@dataclass
class RunResult:
    """Aggregated outcome of running one video through a system."""

    system_name: str
    video_key: str
    traces: list[FrameTrace] = field(default_factory=list)
    #: Frames counted without a per-frame trace (a ``StatsSink`` run
    #: aggregates into streaming accumulators instead of FrameTraces).
    frames_streamed: int = 0

    def add(self, trace: FrameTrace) -> None:
        self.traces.append(trace)

    # -- aggregates --------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.traces) + self.frames_streamed

    @property
    def bandwidth_utilization(self) -> float:
        """Fraction of frames sent to the cloud (the paper's BU)."""
        if not self.traces:
            return 0.0
        return sum(1 for trace in self.traces if trace.sent_to_cloud) / len(self.traces)

    @property
    def accuracy(self) -> AccuracyReport:
        """Corpus-level precision/recall/F-score of the client's view."""
        return aggregate_reports([trace.accuracy for trace in self.traces])

    @property
    def f_score(self) -> float:
        return self.accuracy.f_score

    @property
    def average_latency(self) -> LatencyBreakdown:
        return LatencyBreakdown.average([trace.latency for trace in self.traces])

    @property
    def average_initial_latency(self) -> float:
        if not self.traces:
            return 0.0
        return mean(trace.latency.initial_latency for trace in self.traces)

    @property
    def average_final_latency(self) -> float:
        if not self.traces:
            return 0.0
        return mean(trace.latency.final_latency for trace in self.traces)

    @property
    def total_transactions(self) -> int:
        return sum(trace.transactions_triggered for trace in self.traces)

    @property
    def total_corrections(self) -> int:
        return sum(trace.corrections for trace in self.traces)

    @property
    def total_apologies(self) -> int:
        return sum(trace.apologies for trace in self.traces)


class FrameAggregate(NamedTuple):
    """What every served frame of a run adds up to.

    Each pipeline sink provides one — from the traces it kept or from its
    running sums — so a cluster result is filled the same way whichever
    sink ran.  The cloud-queue figures cover validated frames only; the
    percentiles (``p50_ms`` / ``p95_ms`` / ``p99_ms``) are of per-frame
    final latency, in milliseconds.
    """

    f_score: float
    bandwidth_utilization: float
    average_latency: LatencyBreakdown
    latency_percentiles: dict[str, float]
    cloud_validations: int
    cloud_queued: int
    mean_cloud_queue_delay: float
    max_cloud_queue_delay: float
