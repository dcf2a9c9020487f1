"""The one frame pipeline: body, sinks, drivers, adaptation ticker.

The paper describes one multi-stage frame flow (Figure 1), and this
module is its only implementation:

1. the client sends a frame to an edge node;
2. the edge model detects labels, low-confidence labels are dropped,
   triggered transactions run their initial sections and the initial
   response goes back to the client;
3. bandwidth thresholding decides whether the frame needs cloud
   validation; if so, the frame travels to the cloud, the cloud model
   detects labels and they travel back;
4. edge labels are matched to cloud labels and the final sections run
   with the corrected labels (or, for unvalidated frames, with the
   original edge labels).

:func:`frame_pipeline` builds that flow as the *frame body* of one run,
over the run's :class:`PipelineState` and one :class:`Lane` per edge.  A
deployment decides only *when* bodies start, by the driver it runs:
:func:`arrival_driver` (the cluster, Section 4.5) or
:func:`closed_loop_driver` (the single-edge
:class:`~repro.core.system.CroesusSystem`).  What a run retains is its
*sink*'s business (:class:`TraceSink` or :class:`StatsSink`); the body
simulates the same thing either way.

The body also computes the paper's metrics: the latency breakdown, the
bandwidth utilisation, and the F-score of what the client observed
against the cloud labels (which the paper treats as ground truth — the
cloud model therefore runs on every frame for evaluation, but its
latency and bandwidth are only charged for validated frames).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.adaptive import AdaptationManager
from repro.core.client import Client, ClientResponse
from repro.core.cloud import CloudNode
from repro.core.config import CroesusConfig
from repro.core.edge import EdgeNode, FinalStageOutcome, InitialStageOutcome
from repro.core.results import FrameAggregate, FrameTrace, LatencyBreakdown, RunResult
from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet, ViewRow
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport, aggregate_reports, score_of_empty_view
from repro.network.channel import Channel
from repro.sim.engine import At, Engine, Server
from repro.traffic.shedding import SHED_APOLOGY, LoadShedder
from repro.traffic.source import TrafficStats, percentile
from repro.video.frames import Frame
from repro.video.synthetic import SyntheticVideo

#: Nominal encoded size of a label set sent from the cloud back to the edge.
LABELS_MESSAGE_BYTES = 2_048


def observed_labels(
    initial: InitialStageOutcome,
    cloud_labels: LabelSet,
    final: FinalStageOutcome,
    rows: Sequence[int],
    sent: bool,
    match_overlap: float,
) -> tuple[LabelSet | ViewRow, AccuracyReport]:
    """What the client ends up seeing for one frame, and how accurate it is.

    ``rows`` are the edge labels (rows of ``initial.labels``) that
    survived thresholding.  Unvalidated frames show those; validated
    frames show the corrected view the final sections rendered (see
    :meth:`~repro.detection.matching.FrameOverlaps.client_view`).  The
    view is ``initial.labels`` itself when it shows all of them, else a
    :class:`~repro.detection.labels.ViewRow` of picks into ``Le`` / ``Lc``
    — no observed ``LabelSet`` is built.  It is scored against the cloud
    labels on the table the final stage built, or — for a frame the cloud
    never answered — on one built here.
    """
    labels = initial.labels
    if not rows and not sent:
        # Nothing survived and the cloud never answered: an empty view,
        # which is scored without any geometry.
        observed = ViewRow(labels.frame_id, labels.model_name, ()) if labels.detections else labels
        return observed, score_of_empty_view(cloud_labels)
    overlaps = final.overlaps
    if overlaps is None:
        overlaps = FrameOverlaps(labels.detections, cloud_labels.detections, match_overlap)
    picks, counts = overlaps.client_view(rows, sent)
    if sent:
        observed = ViewRow(initial.frame_id, "croesus-observed", tuple(picks))
    elif len(picks) == len(labels):
        observed = labels
    else:
        observed = ViewRow(labels.frame_id, labels.model_name, tuple(picks))
    return observed, AccuracyReport(*counts)


# -- sinks: what a run retains ---------------------------------------------------
class _FrameSink:
    """Where a run's per-frame outcomes go.

    The frame body reports the same outcomes to either sink; a sink only
    decides what is *retained*, and reduces it to one
    :class:`~repro.core.results.FrameAggregate` when the run ends.
    """

    def __init__(self, system_name: str) -> None:
        self.system_name = system_name
        self.results: dict[str, RunResult] = {}

    def open(self, video: SyntheticVideo) -> RunResult:
        """Register a stream; returns the result its frames account to."""
        result = RunResult(system_name=self.system_name, video_key=video.name)
        self.results[video.name] = result
        return result


class StatsSink(_FrameSink):
    """Sink of a non-recording run: streaming aggregates only.

    Every served frame folds into ``frame_stats`` (the cluster's
    :class:`~repro.cluster.results.FrameStatsAccumulator`) and bumps its
    stream's frame count; nothing per-frame is retained, so run memory
    stays bounded at 10⁶+ frames.
    """

    def __init__(self, system_name: str, frame_stats: Any) -> None:
        super().__init__(system_name)
        self.frame_stats = frame_stats

    def aggregate(self) -> FrameAggregate:
        """The run's frames, reduced from the running sums."""
        return self.frame_stats.aggregate()

    def describe(self, stream: str, frame_id: int) -> tuple[str, str]:
        """Descriptions of a frame's upload and of its label download."""
        return "", ""

    def shed(self, stream: str, frame_id: int, when: float) -> None:
        """A frame was shed at ``when``: its client gets the apology only."""

    def record_frame(
        self,
        result: RunResult,
        edge_id: int,
        initial: InitialStageOutcome,
        initial_done: float,
        final: FinalStageOutcome,
        final_done: float,
        cloud_labels: LabelSet,
        observed: LabelSet | ViewRow,
        latency: tuple[float, ...],
        accuracy: AccuracyReport,
        sent_to_cloud: bool,
        bytes_sent: int,
    ) -> None:
        """Account one served frame: its two client responses (at
        ``initial_done`` / ``final_done``) and its measured outcome.
        Returns the :class:`FrameTrace` the sink kept for it — here, none."""
        result.frames_streamed += 1
        self.frame_stats.record_frame(
            latency,
            accuracy,
            sent_to_cloud,
            bytes_sent,
            initial.attempts,
            final.corrections,
            len(final.apologies),
        )


class TraceSink(_FrameSink):
    """Sink of a recording run: keep everything a reader can ask for.

    One :class:`~repro.core.results.FrameTrace` per served frame and a
    description on every channel transfer — the exact, memory-hungry
    retention every golden pin runs on.  The responses a stream's client
    sees (§3.3.1) are rendered only to a :class:`~repro.core.client.Client`
    the caller passed to :meth:`open`: without one nothing could read
    them, so none is built.
    """

    def __init__(self, system_name: str) -> None:
        super().__init__(system_name)
        self.clients: dict[str, Client] = {}

    def aggregate(self) -> FrameAggregate:
        """The run's frames, reduced from the kept traces."""
        traces = [trace for result in self.results.values() for trace in result.traces]
        delays = [trace.latency.cloud_queue_delay for trace in traces if trace.sent_to_cloud]
        totals = [trace.latency.final_latency * 1000.0 for trace in traces]
        return FrameAggregate(
            f_score=aggregate_reports([trace.accuracy for trace in traces]).f_score,
            bandwidth_utilization=len(delays) / len(traces) if traces else 0.0,
            average_latency=LatencyBreakdown.average([trace.latency for trace in traces]),
            latency_percentiles={
                "p50_ms": percentile(totals, 50.0),
                "p95_ms": percentile(totals, 95.0),
                "p99_ms": percentile(totals, 99.0),
            },
            cloud_validations=len(delays),
            cloud_queued=sum(1 for delay in delays if delay > 0),
            mean_cloud_queue_delay=mean(delays) if delays else 0.0,
            max_cloud_queue_delay=max(delays, default=0.0),
        )

    def open(self, video: SyntheticVideo, client: Client | None = None) -> RunResult:
        """Register a stream whose responses go to ``client`` (default:
        nowhere — no response is built)."""
        if client is not None:
            self.clients[video.name] = client
        return super().open(video)

    def describe(self, stream: str, frame_id: int) -> tuple[str, str]:
        return f"{stream}-frame-{frame_id}", f"{stream}-labels-{frame_id}"

    def shed(self, stream: str, frame_id: int, when: float) -> None:
        client = self.clients.get(stream)
        if client is not None:
            client.render(
                ClientResponse(frame_id, "final", None, apologies=(SHED_APOLOGY,), timestamp=when)
            )

    def record_frame(
        self,
        result: RunResult,
        edge_id: int,
        initial: InitialStageOutcome,
        initial_done: float,
        final: FinalStageOutcome,
        final_done: float,
        cloud_labels: LabelSet,
        observed: LabelSet | ViewRow,
        latency: tuple[float, ...],
        accuracy: AccuracyReport,
        sent_to_cloud: bool,
        bytes_sent: int,
    ) -> FrameTrace:
        frame_id = initial.frame_id
        client = self.clients.get(result.video_key)
        if client is not None:
            client.render(
                ClientResponse(
                    frame_id,
                    "initial",
                    [entry.transaction.initial_result for entry in initial.committed],
                    timestamp=initial_done,
                )
            )
            client.render(
                ClientResponse(frame_id, "final", None, final.apologies, timestamp=final_done)
            )
        trace = FrameTrace.from_labels(
            frame_id,
            initial.labels,
            cloud_labels,
            observed,
            sent_to_cloud,
            LatencyBreakdown(*latency),
            accuracy,
            transactions_triggered=initial.attempts,
            corrections=final.corrections,
            apologies=len(final.apologies),
            frame_bytes_sent=bytes_sent,
            edge_id=edge_id,
        )
        result.add(trace)
        return trace


# -- run state and per-edge bindings ---------------------------------------------
@dataclass
class PipelineState:
    """Mutable execution state of one run, shared by its frame processes."""

    engine: Engine
    cloud_server: Server
    #: Where per-frame outcomes go.
    sink: StatsSink | TraceSink
    #: Frames each edge has started serving.
    frames_on_edge: list[int]
    #: Per-edge failure flag (True from fail_at until the replica rejoins).
    failed: list[bool]
    #: Next instant a process waiting on a failed edge should re-check:
    #: the scheduled restart at first, then the computed rejoin time.
    wake_at: list[float]
    #: Current home edge of every stream (mutated by runtime migration).
    current_edge: dict[str, int] = field(default_factory=dict)
    #: Frames each stream has not finished yet (failback skips drained streams).
    frames_left: dict[str, int] = field(default_factory=dict)
    #: Frames whose final stage has not been computed yet (stops the tickers).
    frames_remaining: int = 0
    makespan: float = 0.0
    #: Ids of transactions aborted by a failure; frames skip their finals.
    aborted_txns: set[str] = field(default_factory=set)
    #: True while an open-loop traffic source may still mint streams.
    source_active: bool = False
    #: Open-loop accounting; None on a finite list of streams.
    traffic: TrafficStats | None = None
    #: Per-frame load shedder of an open-loop run (None: never shed).
    shedder: LoadShedder | None = None
    #: Per-stream threshold controllers of an adaptive run (None when
    #: adaptation is off — the static-policy path).
    adaptation: AdaptationManager | None = None

    def add_stream(self, name: str, edge_id: int, frames: int) -> None:
        """Home a stream of ``frames`` frames on ``edge_id``."""
        self.current_edge[name] = edge_id
        self.frames_left[name] = frames
        self.frames_remaining += frames


class Lane(NamedTuple):
    """What one edge contributes to the frame body."""

    #: The edge's processor: every frame stage is admitted here.
    server: Server
    node: EdgeNode
    client_edge: Channel
    edge_cloud: Channel


def frame_pipeline(
    state: PipelineState,
    lanes: Sequence[Lane],
    cloud: CloudNode,
    static_policy: ThresholdPolicy,
    config: CroesusConfig,
    route: Callable[[str], int] | None = None,
    load_window: float | None = None,
):
    """The frame body of one run, closed over the run's invariants.

    Returns the generator function a driver runs once per frame; it
    returns the instant the frame's final response reaches the client
    (the shed instant for a shed frame).  ``route`` re-homes an arriving
    frame's stream at runtime (the ``"migrating"`` router; ``None`` keeps
    ``state.current_edge``); ``load_window`` is the window the shedder
    measures an edge's load over.
    """
    engine = state.engine
    sink = state.sink
    traffic = state.traffic
    shedder = state.shedder
    adaptation = state.adaptation
    cloud_server = state.cloud_server
    current_edge = state.current_edge
    failed = state.failed
    wake_at = state.wake_at
    frames_left = state.frames_left
    frames_on_edge = state.frames_on_edge
    aborted_txns = state.aborted_txns
    match_overlap = config.match_overlap
    min_confidence = config.min_confidence
    # A deployment serves all its edges under one discipline.  Under the
    # priority discipline initial stages reserve on arrival while final
    # stages defer their admission until the server is really free — an
    # arriving initial always overtakes queued finals.
    priority_serving = lanes[0].server.priority_serving
    # Per-edge bindings: the lane, its node's commit policy (drained for
    # each stage's protocol charge) and whether the node is idle — no
    # trigger rules, no feedback loop — which makes both TPC stages pure
    # label plumbing.
    bindings = [
        (
            *lane,
            lane.node.policy,
            not lane.node.bank.rules and lane.node.smoother is None and lane.node.feedback is None,
        )
        for lane in lanes
    ]

    def frame_body(name: str, result: RunResult, frame: Frame):
        frame_id = frame.frame_id
        edge_id = current_edge[name] if route is None else route(name)
        server, node, client_edge, edge_cloud, rpolicy, node_idle = bindings[edge_id]
        now = engine.now

        if shedder is not None:
            # Overload control: on a saturated edge, degrade this
            # frame's initial stage to an apology (if the budget pays
            # for it) instead of queueing it.  The client hears back
            # immediately; the edge never sees the frame.
            load = server.load(now, window=load_window)
            if shedder.should_shed(now, load):
                traffic.shed_frames += 1
                traffic.apologies_spent += 1
                sink.shed(name, frame_id, now)
                if now > state.makespan:
                    state.makespan = now
                state.frames_remaining -= 1
                frames_left[name] -= 1
                return now

        # -- initial stage ------------------------------------------
        # The frame holds its place in the edge's queue from the
        # moment it arrives; service cannot start before the
        # client->edge transfer lands (the admission's ready time).
        frame_label, labels_label = sink.describe(name, frame_id)
        edge_transfer = client_edge.send(frame.size_bytes, now, frame_label)
        start, queue_delay = server.acquire(now + edge_transfer)
        raw_labels, edge_detection = node.detect(frame)
        if node_idle:
            # process_initial_stage with an empty bank and no
            # feedback: filter, wrap, trigger nothing.
            initial = InitialStageOutcome(
                frame_id=frame_id,
                raw_labels=raw_labels,
                labels=raw_labels.filter_confidence(min_confidence),
                detection_latency=edge_detection,
            )
        else:
            initial = node.process_initial_stage(
                frame,
                raw_labels,
                now=start + edge_detection,
                detection_latency=edge_detection,
            )
        initial_charge, _ = rpolicy.drain_frame_costs()
        initial_done = server.finish(
            start, edge_detection + initial.txn_latency + initial_charge
        )
        frames_on_edge[edge_id] += 1

        # Thresholding on the filtered labels — under adaptation,
        # against the stream's current drifted thresholds rather than
        # the static deployment pair.
        policy = static_policy if adaptation is None else adaptation.policy_for(name)
        surviving_rows, send_to_cloud = policy.partition(initial.labels)

        # The cloud model always runs for ground truth; its cost is
        # only charged when the frame is actually validated.
        cloud_labels, cloud_detection_raw = cloud.detect(frame)

        cloud_transfer = 0.0
        cloud_detection = 0.0
        cloud_queue_delay = 0.0
        frame_bytes_sent = 0
        if send_to_cloud:
            uplink, downlink = edge_cloud.round_trip(
                frame.size_bytes, LABELS_MESSAGE_BYTES, initial_done, frame_label, labels_label
            )
            cloud_transfer = uplink + downlink
            cloud_detection = cloud_detection_raw
            frame_bytes_sent = frame.size_bytes
            # Request a cloud server only once the frame is actually
            # at the cloud: frames reaching it first are served first,
            # and a frame stuck behind a backlogged edge cannot hold a
            # place in the cloud queue while the cloud sits idle.
            yield At(initial_done + uplink)
            cloud_start, cloud_queue_delay = cloud_server.acquire(engine.now)
            cloud_server.finish(cloud_start, cloud_detection)
            # Summed in this order (waiting time last) so that with an
            # unbounded cloud the arithmetic — and therefore every
            # seeded run — is bit-for-bit what the pre-engine model
            # produced.
            final_ready = initial_done + cloud_transfer + cloud_detection + cloud_queue_delay
        else:
            final_ready = initial_done

        # Suspend until the corrected labels are back; the edge keeps
        # serving other frames meanwhile.
        yield At(final_ready)

        # -- final stage --------------------------------------------
        # Resolve failure-aborted transactions before the final
        # sections run: the crash removed their pending finals from
        # the controller, and each carries the apology the failure
        # recorded.
        failure_apologies: tuple[str, ...] = ()
        if aborted_txns:
            aborted_here = [
                entry
                for entry in initial.triggered
                if not entry.aborted and entry.transaction.transaction_id in aborted_txns
            ]
            for entry in aborted_here:
                entry.aborted = True
            failure_apologies = tuple(
                apology for entry in aborted_here for apology in entry.transaction.apologies
            )

        frame_aborted = failed[edge_id] and not initial.committed
        if frame_aborted:
            # Home edge down and nothing left to finalise (the
            # failure aborted this frame's transactions, or it
            # triggered none): the client gets the apologies now
            # instead of a correction.
            final = FinalStageOutcome(frame_id=frame_id, apologies=failure_apologies)
            final_wait = final_charge = overlap_saved = 0.0
            final_done = engine.now
        else:
            while failed[edge_id]:
                # This frame's finals await the coordinator
                # (async-2pc): park until the edge has replayed its
                # log and rejoined.  Low event priority lets the
                # same-instant recovery event flip the flag first.
                yield At(max(engine.now, wake_at[edge_id]), 2)
            final_ready_at = engine.now
            if priority_serving:
                # A queued final does not hold a reservation: it
                # sleeps until the server's next free instant and
                # contends again, waking at low event priority so that
                # same-instant initial-stage events reserve first.
                # Every initial that arrives while the edge is
                # backlogged therefore preempts this final; the time
                # lost shows up in the final queue delay below.
                while server.next_free() > engine.now:
                    yield At(server.next_free(), 1)
            final_start, final_wait = server.acquire(final_ready_at)
            if node_idle and not send_to_cloud:
                # process_final_stage with nothing to finalise and no
                # cloud correction is a frame-id wrapper.
                final = FinalStageOutcome(frame_id=frame_id)
            else:
                final = node.process_final_stage(
                    initial, cloud_labels if send_to_cloud else None, now=final_start
                )
            if failure_apologies:
                final.apologies = final.apologies + failure_apologies
            final_charge, overlap_saved = rpolicy.drain_frame_costs()
            final_done = server.finish(final_start, final.txn_latency + final_charge)
        if final_done > state.makespan:
            state.makespan = final_done

        # -- account ------------------------------------------------
        observed, accuracy = observed_labels(
            initial, cloud_labels, final, surviving_rows, send_to_cloud, match_overlap
        )
        latency = (
            edge_transfer,
            edge_detection,
            initial.txn_latency,
            cloud_transfer,
            cloud_detection,
            final.txn_latency,
            queue_delay,
            final_wait,
            cloud_queue_delay,
            initial_charge + final_charge,
            overlap_saved,
        )
        trace = sink.record_frame(
            result,
            edge_id,
            initial,
            initial_done,
            final,
            final_done,
            cloud_labels,
            observed,
            latency,
            accuracy,
            send_to_cloud,
            frame_bytes_sent,
        )
        if adaptation is not None:
            if send_to_cloud and adaptation.wants_validated_frames:
                # The retune tuner learns only from the validated frames
                # whose cloud labels the stream's controller legitimately
                # observed: their latency and the overlap table of the live
                # (edge, cloud) labels — built here only when a failure
                # aborted the frame before its final stage.
                overlaps = final.overlaps
                if overlaps is None:
                    overlaps = FrameOverlaps(
                        initial.labels.detections, cloud_labels.detections, match_overlap
                    )
                adaptation.observe_frame(
                    name,
                    True,
                    final.corrections,
                    LatencyBreakdown(*latency) if trace is None else trace.latency,
                    overlaps,
                )
            else:
                adaptation.observe_frame(name, send_to_cloud, final.corrections)
        if traffic is not None and not frame_aborted:
            traffic.completed_frames += 1
        state.frames_remaining -= 1
        frames_left[name] -= 1
        return final_done

    return frame_body


# -- drivers: when frame bodies start --------------------------------------------
def arrival_driver(
    engine: Engine,
    body: Callable,
    video: SyntheticVideo,
    result: RunResult,
    arrival_time: Callable[[int], float],
):
    """Lazy per-stream driver: sleep to each arrival, start that frame.

    Each frame's body starts as its own process *at* the arrival instant
    (``arrival_time(frame_id)``), so a stream's frames overlap whenever
    one is still in flight (cloud round trip, queued final) when its
    successor arrives — an open-loop source stays open-loop.  Only one
    frame generator per stream exists ahead of time, whatever the
    stream's length.  Arrivals wake at event priority -1: a frame
    arriving at the very instant of a failure, checkpoint or adaptation
    tick is admitted before it, as if every arrival had been scheduled
    before the run began.
    """
    name = video.name
    for frame in video.frames():
        yield At(arrival_time(frame.frame_id), -1)
        engine.start(body(name, result, frame), name)


def closed_loop_driver(body: Callable, video: SyntheticVideo, result: RunResult):
    """Per-stream driver of a closed loop: one frame in flight at a time.

    The client captures frame ``k+1`` only once frame ``k``'s final
    response has reached it, so a stream that owns its edge never
    queues.
    """
    name = result.video_key
    for frame in video.frames():
        final_done = yield from body(name, result, frame)
        yield At(final_done)


@contextmanager
def _gc_suspended():
    """Suspend the cycle collector while a run's engine drains.

    A run — recording or not, either deployment — allocates events,
    label tuples, transactions and traces, none of them ever in a
    reference cycle: what a frame drops is freed on the spot, what the
    run keeps is still reachable when it ends.  The collector finds
    nothing (``tests/test_no_garbage.py`` holds every workload shape to
    that), yet its scans were 10-17 % of a recording run's wall clock.
    Re-entrant: a no-op when the collector is already off (a nested
    drain, a caller's own policy), and re-enabled when the drain raises.

    Before the collector comes back on, ``freeze`` / ``unfreeze`` moves
    every tracked object into the oldest generation and zeroes the young
    generation's allocation count.  Without that, the first allocation
    after the drain would start a young pass over everything the run
    kept (2-3 % of a recording run's wall clock, and it finds nothing).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.freeze()
        gc.unfreeze()
        gc.enable()


def drain(engine: Engine) -> float:
    """Run ``engine`` until no event is left; returns the makespan."""
    with _gc_suspended():
        return engine.run()


def start_adaptation(state: PipelineState) -> None:
    """Spawn the periodic process ticking every stream's threshold
    controller, when the run adapts; it stops with the run's last frame."""
    manager = state.adaptation
    if manager is None:
        return
    engine = state.engine
    interval = manager.config.interval_s

    def ticker():
        while state.frames_remaining > 0 or state.source_active:
            manager.adapt_all(engine.now)
            yield interval

    engine.spawn(ticker(), at=interval, name="threshold-adapter")
