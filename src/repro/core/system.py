"""The single-edge deployment.

:class:`CroesusSystem` wires one client, one edge node and the cloud
node together and runs a video through the multi-stage flow of Figure 1.
The flow itself — edge detect → initial sections → threshold → cloud
validate → final sections, plus the latency / bandwidth / F-score
accounting — is the one frame pipeline of :mod:`repro.core.pipeline`,
shared with the multi-edge cluster; this module only owns what a
single deployment *is* (its edge node, channels and transaction
history) and drives the pipeline closed-loop over one lane.
"""

from __future__ import annotations

from repro.core.adaptive import AdaptationConfig, AdaptationManager
from repro.core.client import Client
from repro.core.cloud import CloudNode
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.edge import EdgeNode
from repro.core.pipeline import (
    Lane,
    PipelineState,
    TraceSink,
    closed_loop_driver,
    drain,
    frame_pipeline,
    start_adaptation,
)
from repro.core.results import RunResult
from repro.core.thresholds import ThresholdPolicy
from repro.network.channel import Channel
from repro.sim.engine import Engine, Server
from repro.sim.rng import RngRegistry
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.history import History
from repro.video.synthetic import SyntheticVideo
from repro.workloads.ycsb import YCSBWorkload


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

    A system runs once: a second :meth:`run` raises, so build a fresh
    :class:`CroesusSystem` for each video.
    """

    def __init__(
        self,
        config: CroesusConfig,
        bank: TransactionBank | None = None,
        adaptation: AdaptationConfig | None = None,
    ) -> None:
        self.config = config
        self.adaptation_config = adaptation
        self._ran = False
        #: Controllers of the run (``None`` before it, or when adaptation
        #: is off).
        self.last_adaptation: AdaptationManager | None = None
        self.rngs = RngRegistry(config.seed)
        self.history = History()
        self.policy = ThresholdPolicy(config.lower_threshold, config.upper_threshold)

        if bank is None:
            workload = YCSBWorkload(
                rng=self.rngs.stream("ycsb"),
                operations_per_transaction=config.operations_per_transaction,
            )
            bank = TransactionBank()
            bank.register("detection", ANY_LABEL, frame_factory=workload.draft_transactions)
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
        )
        self.cloud = CloudNode(
            profile=config.cloud_profile,
            machine=config.topology.cloud_machine,
            rng=self.rngs.stream("cloud-model"),
        )
        self.client_edge = Channel(config.topology.client_edge_link, self.rngs.stream("client-edge"))
        self.edge_cloud = Channel(config.topology.edge_cloud_link, self.rngs.stream("edge-cloud"))

    # -- public API ---------------------------------------------------------
    def run(self, video: SyntheticVideo, client: Client | None = None) -> RunResult:
        """Process every frame of ``video`` and return the aggregated result.

        The run executes the shared frame body over one lane — this
        system's edge node behind a one-slot server, its two channels
        and an unbounded cloud — under the closed-loop driver, so no job
        ever queues.  Every frame goes to a trace of the returned result.
        The client's initial and final responses are rendered to
        ``client`` when one is passed; by default none is built, since
        nothing would read them.
        """
        if self._ran:
            raise RuntimeError("a CroesusSystem runs once; build a fresh system for another run")
        self._ran = True
        # The run's threshold controllers, or none when adaptation is off.
        self.last_adaptation = (
            None
            if self.adaptation_config is None
            else AdaptationManager(
                self.adaptation_config, self.policy, match_overlap=self.config.match_overlap
            )
        )
        sink = TraceSink(system_name="croesus")
        result = sink.open(video, client)
        engine = Engine()
        state = PipelineState(
            engine=engine,
            cloud_server=Server(capacity=None, name="cloud"),
            sink=sink,
            frames_on_edge=[0],
            failed=[False],
            wake_at=[0.0],
            adaptation=self.last_adaptation,
        )
        state.add_stream(video.name, 0, video.num_frames)
        lane = Lane(Server(capacity=1, name="edge"), self.edge, self.client_edge, self.edge_cloud)
        body = frame_pipeline(state, [lane], self.cloud, self.policy, self.config)
        engine.spawn(closed_loop_driver(body, video, result), name=f"video-{video.name}")
        start_adaptation(state)
        drain(engine)
        return result
