"""The Croesus pipeline.

:class:`CroesusSystem` wires client, edge node and cloud node together
and runs a video through the full multi-stage flow of Figure 1:

1. the client sends a frame to the edge node;
2. the edge model detects labels, low-confidence labels are dropped,
   triggered transactions run their initial sections and the initial
   response goes back to the client;
3. bandwidth thresholding decides whether the frame needs cloud
   validation; if so, the frame travels to the cloud, the cloud model
   detects labels and they travel back;
4. edge labels are matched to cloud labels and the final sections run
   with the corrected labels (or, for unvalidated frames, with the
   original edge labels).

The run also computes the paper's metrics: the latency breakdown, the
bandwidth utilisation, and the F-score of what the client observed
against the cloud labels (which the paper treats as ground truth —
the cloud model therefore runs on every frame for evaluation, but its
latency and bandwidth are only charged for validated frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.adaptive import AdaptationConfig, AdaptationManager
from repro.core.client import Client, ClientResponse
from repro.core.cloud import CloudNode
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.edge import EdgeNode, FinalStageOutcome, InitialStageOutcome
from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport, evaluate_detections
from repro.network.channel import Channel
from repro.network.latency import SAME_REGION
from repro.sim.engine import Engine, Server
from repro.sim.events import EventLog
from repro.sim.rng import RngRegistry
from repro.storage.partition import PartitionedStore
from repro.traffic.admission import make_admission
from repro.traffic.source import TrafficConfig, TrafficSource, TrafficStats, percentile
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.history import History
from repro.transactions.policy import TransactionPolicy, make_policy
from repro.video.synthetic import SyntheticVideo
from repro.workloads.ycsb import YCSBWorkload

#: Nominal encoded size of a label set sent from the cloud back to the edge.
LABELS_MESSAGE_BYTES = 2_048


def observed_labels(
    initial: InitialStageOutcome,
    cloud_labels: LabelSet,
    final: FinalStageOutcome,
    rows: Sequence[int],
    sent: bool,
    match_overlap: float,
) -> tuple[LabelSet, AccuracyReport]:
    """What the client ends up seeing for one frame, and how accurate it is.

    ``rows`` are the edge labels (rows of ``initial.labels``) that
    survived thresholding.  Unvalidated frames show those; validated
    frames show the corrected view the final sections rendered (see
    :meth:`~repro.detection.matching.FrameOverlaps.client_view`).  The
    view is scored against the cloud labels on the table the final stage
    built, or — for a frame the cloud never answered — on one built here.
    Shared by the single-edge :class:`CroesusSystem` and the multi-edge
    cluster system.
    """
    labels = initial.labels
    if not rows and not sent:
        # Nothing survived and the cloud never answered: an empty view,
        # which is scored without any geometry.
        observed = (
            LabelSet(labels.frame_id, (), labels.model_name) if labels.detections else labels
        )
        return observed, evaluate_detections(observed, cloud_labels, match_overlap)
    overlaps = final.overlaps
    if overlaps is None:
        overlaps = FrameOverlaps(labels.detections, cloud_labels.detections, match_overlap)
    view, counts = overlaps.client_view(rows, sent)
    if sent:
        observed = LabelSet(initial.frame_id, tuple(view), model_name="croesus-observed")
    elif len(view) == len(labels):
        observed = labels
    else:
        observed = LabelSet(labels.frame_id, tuple(view), labels.model_name)
    return observed, AccuracyReport(*counts)


@dataclass
class OpenLoopRunResult:
    """Outcome of one open-loop run on a single-edge deployment."""

    per_stream: dict[str, RunResult] = field(default_factory=dict)
    traffic: TrafficStats = field(default_factory=TrafficStats)
    makespan: float = 0.0

    @property
    def goodput_fps(self) -> float:
        """Frames fully served per second of simulated time."""
        if self.makespan <= 0:
            return 0.0
        return self.traffic.completed_frames / self.makespan

    def latency_percentiles(self) -> dict[str, float]:
        """p50/p95/p99 of per-frame final latency, in milliseconds."""
        totals = [
            trace.latency.final_latency * 1000.0
            for result in self.per_stream.values()
            for trace in result.traces
        ]
        return {
            "p50_ms": percentile(totals, 50.0),
            "p95_ms": percentile(totals, 95.0),
            "p99_ms": percentile(totals, 99.0),
        }


class CroesusSystem:
    """One Croesus deployment, ready to process videos.

    Parameters
    ----------
    config:
        Deployment configuration (topology, models, thresholds, safety
        level, seed).
    bank:
        Optional transactions bank.  When omitted, a YCSB-A workload rule
        is registered for every label class, mirroring the paper's
        evaluation ("transactions are constructed by randomly selecting
        keys to read or write to the database in response to detected
        labels").
    adaptation:
        Optional online threshold adaptation
        (:class:`~repro.core.adaptive.AdaptationConfig`).  When set,
        each run builds per-stream controllers that drift the stream's
        ``(θL, θU)`` from its observed detection feedback; ``None`` (the
        default) keeps the static configured thresholds and builds no
        adaptation machinery at all.
    """

    def __init__(
        self,
        config: CroesusConfig,
        bank: TransactionBank | None = None,
        adaptation: AdaptationConfig | None = None,
    ) -> None:
        self.config = config
        self.adaptation_config = adaptation
        #: Controllers of the most recent run (``None`` before the first
        #: adaptive run, or when adaptation is off).
        self.last_adaptation: AdaptationManager | None = None
        self.rngs = RngRegistry(config.seed)
        self.events = EventLog()
        self.history = History()
        self.policy = ThresholdPolicy(config.lower_threshold, config.upper_threshold)

        if bank is None:
            workload = YCSBWorkload(
                rng=self.rngs.stream("ycsb"),
                operations_per_transaction=config.operations_per_transaction,
            )
            bank = TransactionBank()
            bank.register(
                name="detection",
                label_class=ANY_LABEL,
                factory=lambda detection, txn_id: workload.build_transaction(txn_id, detection),
            )
        self.bank = bank

        consistency = "ms-sr" if config.consistency is ConsistencyLevel.MS_SR else "ms-ia"
        self.edge = EdgeNode(
            profile=config.edge_profile,
            machine=config.topology.edge_machine,
            bank=self.bank,
            rng=self.rngs.stream("edge-model"),
            min_confidence=config.min_confidence,
            match_overlap=config.match_overlap,
            consistency=consistency,
            history=self.history,
            enable_feedback=config.enable_feedback,
            policy=self._build_policy(consistency),
        )
        self.cloud = CloudNode(
            profile=config.cloud_profile,
            machine=config.topology.cloud_machine,
            rng=self.rngs.stream("cloud-model"),
        )
        self.client_edge = Channel(config.topology.client_edge_link, self.rngs.stream("client-edge"))
        self.edge_cloud = Channel(config.topology.edge_cloud_link, self.rngs.stream("edge-cloud"))

    def _build_policy(self, consistency: str) -> TransactionPolicy | None:
        """Commit policy of this deployment, or ``None`` for the default.

        Under the default ``"immediate-2pc"`` the edge node builds its
        plain single-node controller exactly as it always has.  The
        batched/async policies need a controller with coordinator
        hooks, so they run the distributed controllers over a
        one-partition store (sharing this system's transaction history,
        so the MS-SR/MS-IA checkers still audit the run) — everything
        stays local, which makes both policies well-defined (zero
        remote participants) on a single-edge deployment.  Note the
        node's committed state then lives in that partitioned store
        (``system.edge.controller.store``), not in ``edge.store``.
        """
        if self.config.transaction_policy == "immediate-2pc":
            return None
        store = PartitionedStore(1)
        if consistency == "ms-sr":
            controller: DistributedMSIAController = DistributedTwoStage2PL(
                store, history=self.history
            )
        else:
            controller = DistributedMSIAController(store, history=self.history)
        return make_policy(
            self.config.transaction_policy,
            controller,
            owned_partitions=frozenset(range(store.num_partitions)),
            channel=Channel(SAME_REGION, self.rngs.stream("txn-coordinator")),
        )

    # -- public API ---------------------------------------------------------
    def run(self, video: SyntheticVideo, client: Client | None = None) -> RunResult:
        """Process every frame of ``video`` and return the aggregated result.

        The run executes on the shared discrete-event engine
        (:mod:`repro.sim.engine`): one process walks the video and the
        edge and cloud are modelled as servers.  A single deployment
        serves one stream, so the pipeline stays sequential — frame
        ``k+1`` enters the edge only after frame ``k``'s final commit —
        and no job ever queues; the engine's value here is that the same
        execution substrate also drives the multi-edge cluster, where
        contention is real.

        Each call starts from a clean slate: the event log and the
        transaction history are cleared so repeated ``run()`` invocations
        on one system do not accumulate records across runs.
        """
        if client is None:
            client = Client(video)
        self.events.clear()
        self.history.clear()
        result = RunResult(system_name="croesus", video_key=video.name)
        engine = Engine()
        edge_server = Server(capacity=1, name="edge")
        cloud_server = Server(capacity=None, name="cloud")
        manager = self._make_adaptation()
        progress = (
            {"remaining": video.num_frames, "source_active": False}
            if manager is not None
            else None
        )
        engine.spawn(
            self._video_process(
                engine, edge_server, cloud_server, client, result,
                adaptation=manager, progress=progress,
            ),
            name=f"video-{video.name}",
        )
        if manager is not None:
            engine.spawn(
                self._adaptation_process(engine, manager, progress),
                at=self.adaptation_config.interval_s,
                name="threshold-adapter",
            )
        makespan = engine.run()
        # Flush any coordinator work the commit policy deferred (a no-op
        # under the default immediate policy).
        self.edge.policy.commit(now=makespan)
        return result

    def run_open_loop(self, traffic: TrafficConfig) -> OpenLoopRunResult:
        """Serve an open-loop arrival process on this single deployment.

        A :class:`~repro.traffic.source.TrafficSource` mints streams at
        seeded arrival instants until ``traffic.duration_s``; each
        admitted stream runs the usual sequential per-stream pipeline,
        but all concurrent streams contend for the *one* edge server, so
        overload shows up as queue delay exactly as it does per-edge in
        the cluster.  Admission control (the stream-level half of the
        overload story) applies; per-frame shedding is a cluster
        feature — a single deployment has no other edge to spare.
        """
        self.events.clear()
        self.history.clear()
        outcome = OpenLoopRunResult()
        engine = Engine()
        edge_server = Server(capacity=1, name="edge")
        cloud_server = Server(capacity=None, name="cloud")
        admission = make_admission(traffic.admission, rate=traffic.admission_rate)
        source = TrafficSource(traffic, self.rngs)
        stats = outcome.traffic
        manager = self._make_adaptation()
        progress = (
            {"remaining": 0, "source_active": True} if manager is not None else None
        )

        def deliver(video: SyntheticVideo) -> None:
            stats.offered_streams += 1
            stats.offered_frames += video.num_frames
            backlog = edge_server.backlog(engine.now)
            admitted = admission.admit(engine.now, backlog)
            self.events.record(
                engine.now,
                "stream_arrival",
                stream=video.name,
                frames=video.num_frames,
                admitted=admitted,
                backlog_s=backlog,
            )
            if not admitted:
                stats.rejected_streams += 1
                return
            stats.admitted_streams += 1
            stats.admitted_frames += video.num_frames
            client = Client(video)
            result = RunResult(system_name="croesus", video_key=video.name)
            outcome.per_stream[video.name] = result
            if progress is not None:
                progress["remaining"] += video.num_frames
            engine.spawn(
                self._video_process(
                    engine, edge_server, cloud_server, client, result,
                    adaptation=manager, progress=progress,
                ),
                name=f"video-{video.name}",
            )

        if manager is None:
            engine.spawn(source.drive(engine, deliver), name="traffic-source")
        else:
            def source_process():
                yield from source.drive(engine, deliver)
                progress["source_active"] = False

            engine.spawn(source_process(), name="traffic-source")
            engine.spawn(
                self._adaptation_process(engine, manager, progress),
                at=self.adaptation_config.interval_s,
                name="threshold-adapter",
            )
        outcome.makespan = engine.run()
        self.edge.policy.commit(now=outcome.makespan)
        stats.completed_frames = sum(
            result.num_frames for result in outcome.per_stream.values()
        )
        return outcome

    # -- per-frame pipeline ---------------------------------------------------
    def _video_process(
        self,
        engine: Engine,
        edge_server: Server,
        cloud_server: Server,
        client: Client,
        result: RunResult,
        adaptation: AdaptationManager | None = None,
        progress: dict | None = None,
    ):
        """Engine process running every frame through the two-stage flow.

        ``adaptation``/``progress`` are only supplied by adaptive runs:
        the per-stream controller overrides the static thresholding
        decision, and the frame countdown tells the adapter process when
        to stop ticking.
        """
        for frame in client.frames():
            # Step 1: client -> edge transfer.
            edge_transfer = self.client_edge.send(
                frame.size_bytes, timestamp=engine.now, description=f"frame-{frame.frame_id}"
            )
            yield edge_transfer

            # Step 2: edge detection + initial sections, as one edge job.
            admission = edge_server.admit(engine.now)
            queue_delay = admission.wait
            edge_labels_raw, edge_detection = self.edge.detect(frame)
            initial = self.edge.process_initial_stage(
                frame,
                edge_labels_raw,
                now=admission.start + edge_detection,
                detection_latency=edge_detection,
            )
            initial_charge, _ = self.edge.policy.drain_frame_costs()
            initial_done = edge_server.complete(
                admission, edge_detection + initial.txn_latency + initial_charge
            )
            yield engine.at(initial_done)
            client.render(
                ClientResponse(
                    frame_id=frame.frame_id,
                    stage="initial",
                    payload=[entry.initial_result for entry in initial.committed],
                    timestamp=engine.now,
                )
            )
            self.events.record(engine.now, "initial_commit", frame_id=frame.frame_id)

            # Step 3: thresholding decision on the filtered labels —
            # under adaptation, against the stream's *current* drifted
            # thresholds rather than the static deployment pair.
            policy = (
                self.policy
                if adaptation is None
                else adaptation.policy_for(result.video_key)
            )
            surviving_rows, send_to_cloud = policy.partition(initial.labels)

            # The cloud model always runs for ground truth; its cost is only
            # charged when the frame is actually validated.
            cloud_labels, cloud_detection_raw = self.cloud.detect(frame)

            cloud_transfer = 0.0
            cloud_detection = 0.0
            cloud_queue_delay = 0.0
            frame_bytes_sent = 0
            if send_to_cloud:
                uplink, downlink = self.edge_cloud.round_trip(
                    frame.size_bytes,
                    LABELS_MESSAGE_BYTES,
                    timestamp=engine.now,
                    up_description=f"frame-{frame.frame_id}",
                    down_description=f"labels-{frame.frame_id}",
                )
                cloud_transfer = uplink + downlink
                cloud_detection = cloud_detection_raw
                frame_bytes_sent = frame.size_bytes
                cloud_start, cloud_queue_delay = cloud_server.reserve(
                    engine.now + uplink, cloud_detection
                )
                yield engine.at(cloud_start + cloud_detection + downlink)

            # Step 4: final sections (with corrections when validated).
            final_admission = edge_server.admit(engine.now)
            final = self.edge.process_final_stage(
                initial, cloud_labels if send_to_cloud else None, now=final_admission.start
            )
            final_charge, overlap_saved = self.edge.policy.drain_frame_costs()
            final_done = edge_server.complete(
                final_admission, final.txn_latency + final_charge
            )
            yield engine.at(final_done)
            client.render(
                ClientResponse(
                    frame_id=frame.frame_id,
                    stage="final",
                    payload=None,
                    apologies=final.apologies,
                    timestamp=engine.now,
                )
            )
            self.events.record(engine.now, "final_commit", frame_id=frame.frame_id)

            observed, accuracy = observed_labels(
                initial, cloud_labels, final, surviving_rows, send_to_cloud,
                self.config.match_overlap,
            )
            latency = LatencyBreakdown(
                edge_transfer=edge_transfer,
                edge_detection=edge_detection,
                initial_txn=initial.txn_latency,
                cloud_transfer=cloud_transfer,
                cloud_detection=cloud_detection,
                final_txn=final.txn_latency,
                queue_delay=queue_delay,
                final_queue_delay=final_admission.wait,
                cloud_queue_delay=cloud_queue_delay,
                commit_protocol=initial_charge + final_charge,
                commit_overlap_saved=overlap_saved,
            )

            trace = FrameTrace(
                frame_id=frame.frame_id,
                edge_labels=initial.labels,
                cloud_labels=cloud_labels,
                observed_labels=observed,
                sent_to_cloud=send_to_cloud,
                latency=latency,
                accuracy=accuracy,
                transactions_triggered=len(initial.triggered),
                corrections=final.corrections,
                apologies=len(final.apologies),
                frame_bytes_sent=frame_bytes_sent,
            )
            result.add(trace)
            if adaptation is not None:
                adaptation.observe_frame(
                    result.video_key,
                    send_to_cloud,
                    final.corrections,
                    trace if send_to_cloud and adaptation.wants_traces else None,
                )
            if progress is not None:
                progress["remaining"] -= 1

    # -- helpers --------------------------------------------------------------
    def _make_adaptation(self) -> AdaptationManager | None:
        """Fresh per-run controllers, or ``None`` when adaptation is off."""
        if self.adaptation_config is None:
            self.last_adaptation = None
            return None
        manager = AdaptationManager(
            self.adaptation_config, self.policy, match_overlap=self.config.match_overlap
        )
        self.last_adaptation = manager
        return manager

    def _adaptation_process(self, engine: Engine, manager: AdaptationManager, progress: dict):
        """Periodic engine process ticking every stream's controller."""
        interval = self.adaptation_config.interval_s
        while progress["remaining"] > 0 or progress["source_active"]:
            for update in manager.adapt_all(engine.now):
                self.events.record(
                    engine.now,
                    "threshold_adapted",
                    stream=update.stream,
                    mode=update.mode,
                    lower=update.lower,
                    upper=update.upper,
                )
            yield interval
