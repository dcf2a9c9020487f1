"""The single-edge deployment.

:class:`CroesusSystem` wires one client, one edge node and the cloud
node together and runs a video through the multi-stage flow of Figure 1.
The flow itself — edge detect → initial sections → threshold → cloud
validate → final sections, plus the latency / bandwidth / F-score
accounting — is the one frame pipeline of :mod:`repro.core.pipeline`,
shared with the multi-edge cluster; this module only owns what a
single deployment *is* (its edge node, channels, commit policy and
transaction history) and drives the pipeline closed-loop over one lane.
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
from repro.network.latency import SAME_REGION
from repro.sim.engine import Engine, Server
from repro.sim.rng import RngRegistry
from repro.storage.partition import PartitionedStore
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.history import History
from repro.transactions.policy import TransactionPolicy, make_policy
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

        The run executes the shared frame body over one lane — this
        system's edge node behind a one-slot server, its two channels
        and an unbounded cloud — under the closed-loop driver, so no job
        ever queues.  Every frame goes to a trace of the returned result.
        The client's initial and final responses are rendered to
        ``client`` when one is passed; by default none is built, since
        nothing would read them.

        Each call starts from a clean slate: the transaction history is
        cleared so repeated ``run()`` invocations on one system do not
        accumulate records across runs.
        """
        self.history.clear()
        # Fresh per-run controllers, or none when adaptation is off.
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
        makespan = drain(engine)
        # Flush any coordinator work the commit policy deferred (a no-op
        # under the default immediate policy).
        self.edge.policy.commit(now=makespan)
        return result
