"""The multi-edge cluster deployment.

:class:`ClusterSystem` scales the Croesus deployment out to many edge
replicas serving many concurrent camera streams against one
hash-partitioned datastore (paper Section 4.5).  What happens to a frame
is the one frame pipeline of :mod:`repro.core.pipeline` — the body the
single-edge :class:`~repro.core.system.CroesusSystem` drives closed-loop
— run here on the frame's home replica, one
:func:`~repro.core.pipeline.arrival_driver` per stream.  This module
owns what makes a deployment a *cluster*:

1. a router places every stream on an edge replica (round-robin,
   consistent-hash, least-loaded, a deliberately skewed hotspot
   placement, or the runtime-adaptive migrating policy);
2. frames arrive on :mod:`repro.cluster.scheduler`'s timing whether or
   not their predecessors have answered, so all streams' frames merge
   into one global timeline; each replica is a finite-capacity server
   whose waiting time — driven by the replica's measured
   detection+transaction service times — shows up in frame latency,
   making overload visible;
3. transactions execute through the distributed controllers of
   :mod:`repro.transactions.distributed`: lock requests for keys hashed
   to another replica's partitions are routed there, and commits run
   two-phase commit across the participating partitions;
4. the cloud itself can be a finite-capacity server
   (:attr:`ClusterConfig.cloud_servers`): validated frames from every
   edge contend for the cloud's model servers, and the time they queue
   there is reported as ``cloud_queue_delay``;
5. with the ``"migrating"`` router the engine's runtime visibility is
   fed back into routing: when an edge's observed utilization crosses a
   threshold, the arriving stream's remaining frames are re-routed to
   the least-utilized edge (kept as :class:`~repro.cluster.results.MigrationRecord`\\ s);
6. :attr:`ClusterConfig.record_frames` selects the run's *sink* and
   nothing else: per-frame traces and labelled transfers when
   recording, streaming aggregates otherwise;
7. the run returns per-stream :class:`~repro.core.results.RunResult`\\ s
   plus cluster-level metrics: per-edge utilization and queue delay, the
   cross-edge transaction fraction, the 2PC abort rate, cloud queueing,
   and any migrations;
8. with :attr:`ClusterConfig.geo` spanning several regions, the edges
   group into WAN-linked regions: streams place region-first, each run
   builds a :class:`~repro.geo.system.GeoTier` that every replica's
   policy reports its commit rounds to, and — under dominant-region
   placement — a process moves partitions where the tier says.

Because the cloud round trip does not occupy the edge, a replica keeps
serving other frames while a validated frame is in flight; under MS-SR
the in-flight frame's locks stay held, so concurrent frames can abort —
the cluster reproduces the paper's contention behaviour at scale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.failure import (
    FAILURE_DETECT_SECONDS,
    FailureInjector,
    FailureRecord,
    FailureSpec,
    PromotionRecord,
    ReshardRecord,
    ReshardSpec,
    recovery_time,
)
from repro.cluster.node import EdgeReplica
from repro.cluster.replication import ReplicationManager
from repro.cluster.results import (
    ClusterRunResult,
    EdgeMetrics,
    FrameStatsAccumulator,
    MigrationRecord,
)
from repro.cluster.router import MigratingRouter, MigrationTrigger, make_router
from repro.cluster.scheduler import FrameScheduler
from repro.core.adaptive import AdaptationConfig, AdaptationManager
from repro.core.cloud import CloudNode
from repro.core.config import ConsistencyLevel
from repro.core.pipeline import (
    Lane,
    PipelineState,
    StatsSink,
    TraceSink,
    arrival_driver,
    drain,
    frame_pipeline,
    start_adaptation,
)
from repro.core.thresholds import ThresholdPolicy
from repro.geo.placement import PLACEMENT_INTERVAL_S
from repro.geo.system import GeoTier
from repro.geo.wan import WanFabric
from repro.network.channel import Channel
from repro.network.latency import SAME_REGION
from repro.sim.engine import Engine, ReferenceServer, Server
from repro.sim.rng import RngRegistry
from repro.storage.partition import PartitionedStore
from repro.traffic.admission import AdmissionController, make_admission
from repro.traffic.shedding import ApologyBudget, LoadShedder
from repro.traffic.source import TrafficConfig, TrafficSource, TrafficStats
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.ms_sr import ControllerStats
from repro.transactions.policy import PolicyStats
from repro.video.synthetic import SyntheticVideo
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.ycsb import YCSBWorkload

#: Builds the transactions bank for one edge replica.  Each replica needs
#: its own bank so transaction ids (the lock-holder ids in the shared
#: partitions) never collide across replicas.
BankFactory = Callable[[int], TransactionBank]


# -- callbacks handed to replicas, policies and logs: none holds the system ----
def _make_server(
    config: ClusterConfig, capacity: int | None, name: str, discipline: str = "fifo"
) -> Server:
    """One edge or cloud server, honouring the engine knobs: the
    preserved reference implementation when the config selects it;
    otherwise full per-job records when recording, streaming wait
    statistics + a bounded interval record when not."""
    if config.reference_engine:
        return ReferenceServer(capacity=capacity, name=name, discipline=discipline)
    return Server(
        capacity=capacity, name=name, discipline=discipline, record_jobs=config.record_frames
    )


def _vote_channel(
    partition_home: dict[int, int], channels: list[Channel], partition_id: int
) -> Channel | None:
    """Channel of the replica hosting ``partition_id`` (vote latency).

    Participant-side prepare votes are drawn from the *participant's*
    link, not the coordinator's; the partition-home map keeps the
    resolution correct across runtime re-shards.
    """
    edge_id = partition_home.get(partition_id)
    return None if edge_id is None else channels[edge_id]


def _forward_wal_append(system: weakref.ref, partition_id: int, record) -> None:
    """A partition's WAL ship hook: hand the append to the live system."""
    system()._on_wal_append(partition_id, record)


def _record_flush(flushes: list[tuple[int, float]], transactions: int, duration: float) -> None:
    """One replica's batched-coordinator flush, kept for the report."""
    flushes.append((transactions, duration))


@dataclass
class _RunState(PipelineState):
    """Execution state of one cluster run: what the frame pipeline shares
    (:class:`~repro.core.pipeline.PipelineState`) plus the cluster's own
    placement, failure and re-sharding bookkeeping."""

    #: Controller/policy counters before the run (a run reports only its own work).
    baseline: tuple = ()
    #: Placement-time home edge of every stream, in admission order.
    placements: dict[str, int] = field(default_factory=dict)
    #: The run's frame body (see :func:`~repro.core.pipeline.frame_pipeline`).
    frame_body: Callable | None = None
    migrations: list[MigrationRecord] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    reshards: list[ReshardRecord] = field(default_factory=list)
    promotions: list[PromotionRecord] = field(default_factory=list)
    #: ``(transactions, duration)`` of every batched-coordinator flush.
    flushes: list[tuple[int, float]] = field(default_factory=list)
    checkpoints: int = 0
    #: Per-stream admission control of an open-loop run.
    admission: AdmissionController | None = None
    #: The run's geo tier (``None`` in a single-region cluster).
    geo: GeoTier | None = None


class ClusterSystem:
    """A multi-edge Croesus deployment over one partitioned store.

    Parameters
    ----------
    config:
        Cluster deployment configuration.
    bank_factory:
        Optional per-edge transactions-bank builder.  The default
        registers a YCSB-A rule per replica, mirroring the single-edge
        default; see :func:`hotspot_bank_factory` for the contention
        scenario.
    """

    def __init__(self, config: ClusterConfig, bank_factory: BankFactory | None = None) -> None:
        self.config = config
        base = config.base
        self.rngs = RngRegistry(base.seed)
        self.policy = ThresholdPolicy(base.lower_threshold, base.upper_threshold)
        self.store = PartitionedStore(config.num_partitions)
        self.scheduler = FrameScheduler(config.frame_interval)

        consistency = "ms-sr" if base.consistency is ConsistencyLevel.MS_SR else "ms-ia"
        if bank_factory is None:
            bank_factory = self._default_bank_factory

        # Coordinator <-> participant messaging rides an intra-cluster
        # (same-region) link with its own stream per replica, so policies
        # that model it never perturb the seeded draws of the frame
        # pipeline.  All channels are built up front: a prepare phase
        # draws each participant's *voting* latency from the participant
        # replica's own channel (resolved through the partition-home map,
        # which re-sharding updates at runtime).
        self._coordinator_channels = [
            Channel(
                SAME_REGION,
                self.rngs.stream(f"txn-coordinator-{edge_id}"),
                record_transfers=config.record_frames,
            )
            for edge_id in range(config.num_edges)
        ]
        #: partition id -> edge currently hosting it (mutated by re-sharding).
        self._partition_home = {
            partition_id: partition_id // config.partitions_per_edge
            for partition_id in range(config.num_partitions)
        }

        self.replicas: list[EdgeReplica] = []
        self._client_edge: list[Channel] = []
        self._edge_cloud: list[Channel] = []
        for edge_id in range(config.num_edges):
            owned = frozenset(
                range(
                    edge_id * config.partitions_per_edge,
                    (edge_id + 1) * config.partitions_per_edge,
                )
            )
            replica = EdgeReplica(
                edge_id=edge_id,
                profile=base.edge_profile,
                machine=base.topology.edge_machine,
                bank=bank_factory(edge_id),
                rng=self.rngs.stream(f"edge-model-{edge_id}"),
                store=self.store,
                owned_partitions=owned,
                consistency=consistency,
                min_confidence=base.min_confidence,
                match_overlap=base.match_overlap,
                transaction_policy=base.transaction_policy,
                coordinator_channel=self._coordinator_channels[edge_id],
                vote_channel_for=partial(
                    _vote_channel, self._partition_home, self._coordinator_channels
                ),
                server_factory=partial(
                    _make_server, config, 1, f"edge-{edge_id}", config.edge_discipline
                ),
            )
            self.replicas.append(replica)
            self._client_edge.append(
                Channel(
                    base.topology.client_edge_link,
                    self.rngs.stream(f"client-edge-{edge_id}"),
                    record_transfers=config.record_frames,
                )
            )
            self._edge_cloud.append(
                Channel(
                    base.topology.edge_cloud_link,
                    self.rngs.stream(f"edge-cloud-{edge_id}"),
                    record_transfers=config.record_frames,
                )
            )

        self.cloud = CloudNode(
            profile=base.cloud_profile,
            machine=base.topology.cloud_machine,
            rng=self.rngs.stream("cloud-model"),
        )
        self.router = make_router(
            config.router_policy,
            config.num_edges,
            rng=self.rngs.stream("router"),
            compute_scales=[replica.machine.compute_scale for replica in self.replicas],
            hot_fraction=config.hotspot_fraction,
            migration_high=config.migration_high,
            migration_low=config.migration_low,
            regions=config.geo.regions,
        )
        #: The WAN mesh between regions (``None`` in a single-region cluster).
        self._wan = (
            WanFabric(
                config.geo.regions,
                config.geo.wan_link,
                self.rngs,
                record_transfers=config.record_frames,
            )
            if config.geo.regions > 1
            else None
        )

        # Replication and group-commit observe WAL appends through the
        # ship hook.  Everything here is conditional: at the default
        # replication_factor=1 with no group-commit window, no channels,
        # RNG streams, or hooks exist and seeded runs stay bit-for-bit.
        #: Engine of the run in flight (the WAL ship hook needs ``now``
        #: and ``schedule`` from synchronous, non-process context).
        self._run_engine: Engine | None = None
        self._replication_channels: list[Channel] = []
        self._replication: ReplicationManager | None = None
        if config.replication_factor > 1:
            self._replication_channels = [
                Channel(
                    SAME_REGION,
                    self.rngs.stream(f"replication-{edge_id}"),
                    record_transfers=config.record_frames,
                )
                for edge_id in range(config.num_edges)
            ]
            self._replication = ReplicationManager(
                store=self.store,
                partition_home=self._partition_home,
                num_edges=config.num_edges,
                factor=config.replication_factor,
                mode=config.replication_mode,
                channel_for=self._replication_channels.__getitem__,
            )
        if config.wal_group_commit_window_s is not None:
            for replica in self.replicas:
                replica.policy.configure_group_commit(config.wal_group_commit_window_s)
        if self._replication is not None or config.wal_group_commit_window_s is not None:
            # The hook reaches the policies, whose controllers hold the
            # store that holds the hook: a weak reference keeps that loop
            # from making the system a reference cycle.
            system = weakref.ref(self)
            for partition_id in range(config.num_partitions):
                self.store.partition(partition_id).wal.on_append = partial(
                    _forward_wal_append, system, partition_id
                )

    def _on_wal_append(self, partition_id: int, record) -> None:
        """Ship hook of one partition's redo log.

        Fired synchronously inside every committed write: the hosting
        replica's policy accounts the append (group-commit flush
        amortisation), and the replication manager — when configured —
        ships the record to the partition's backups as engine events.
        """
        engine = self._run_engine
        now = engine.now if engine is not None else 0.0
        home = self._partition_home.get(partition_id)
        if home is not None:
            self.replicas[home].policy.observe_wal_append(now)
        if self._replication is not None:
            self._replication.ship(partition_id, record, now)

    # -- public API ---------------------------------------------------------
    def run(self, streams: Sequence[SyntheticVideo]) -> ClusterRunResult:
        """Run every stream to completion and return the cluster result.

        Streams are placed on edges by the configured router and each
        gets one arrival driver, phase-shifted against the others (what
        a frame then does is :mod:`repro.core.pipeline`'s business).
        Each call starts from fresh servers and reports only its own
        transactions; note that reusing a system continues the random
        streams, so build a fresh
        :class:`ClusterSystem` when two runs must reproduce each other
        bit for bit.  The *durable* state — the partitioned store and
        its write-ahead logs — intentionally persists across runs: a
        crash in a later run recovers everything earlier runs committed,
        so that run's replay metrics cover the accumulated log tail, and
        a re-shard that already ran is a no-op the second time.
        """
        if not streams:
            raise ValueError("need at least one stream")
        names = [video.name for video in streams]
        if len(set(names)) != len(names):
            raise ValueError("stream names must be unique")

        state = self._begin_run()
        placements = self.router.assign(names)
        starts = self.scheduler.phase_offsets(len(streams))
        horizon = 0.0
        for video, edge_id, start in zip(streams, placements, starts, strict=True):
            self._start_stream(state, video, edge_id, start)
            if video.num_frames:
                horizon = max(
                    horizon, self.scheduler.arrival_time(start, video.num_frames - 1)
                )
        self._spawn_run_processes(state, horizon)
        return self._finish_run(state)

    def run_open_loop(self, traffic: TrafficConfig) -> ClusterRunResult:
        """Serve an open-loop arrival process instead of a finite list.

        A :class:`~repro.traffic.source.TrafficSource` runs as one more
        engine process, minting camera streams at seeded arrival
        instants until ``traffic.duration_s`` (stop-at-time: streams
        admitted before the horizon run to completion, nothing new
        arrives after it).  Each arriving stream passes the configured
        admission controller — rejected streams never touch an edge —
        and each admitted frame may still be shed at its edge by the
        apology-budgeted load shedder when the edge is saturated.  The
        result's :attr:`~ClusterRunResult.traffic` carries the
        offered/admitted/shed accounting; everything else reads exactly
        like a closed-loop result.
        """
        state = self._begin_run(traffic)
        source = TrafficSource(traffic, self.rngs)

        def source_process():
            yield from source.drive(state.engine, lambda video: self._admit_stream(state, video))
            state.source_active = False

        state.engine.spawn(source_process(), at=0.0, name="traffic-source")
        self._spawn_run_processes(state, horizon=traffic.duration_s)
        return self._finish_run(state)

    # -- shared run setup ---------------------------------------------------
    def _begin_run(self, traffic: TrafficConfig | None = None) -> "_RunState":
        """Fresh execution state over clean servers.

        ``traffic`` switches on the open-loop controls (admission, the
        apology-budgeted shedder, offered/admitted accounting).
        """
        for replica in self.replicas:
            replica.reset_run_state()
        state = _RunState(
            engine=Engine(),
            cloud_server=_make_server(self.config, self.config.cloud_servers, "cloud"),
            sink=(
                TraceSink("croesus-cluster")
                if self.config.record_frames
                else StatsSink("croesus-cluster", FrameStatsAccumulator())
            ),
            baseline=self._pre_snapshot(),
            frames_on_edge=[0] * len(self.replicas),
            failed=[False] * len(self.replicas),
            wake_at=[0.0] * len(self.replicas),
            adaptation=self._make_adaptation_manager(),
        )
        if traffic is not None:
            state.traffic = TrafficStats()
            state.source_active = True
            state.admission = make_admission(traffic.admission, rate=traffic.admission_rate)
            if traffic.apology_budget is not None:
                state.shedder = LoadShedder(
                    traffic.shed_threshold, ApologyBudget(traffic.apology_budget)
                )
        if self._wan is not None:
            state.geo = GeoTier(
                self.config.geo,
                self.config.num_edges,
                self._partition_home,
                self._wan,
                state.engine,
            )
        for replica in self.replicas:
            replica.policy.on_flush = partial(_record_flush, state.flushes)
            replica.policy.on_commit_round = (
                None
                if state.geo is None
                else partial(state.geo.observe_commit_round, replica.edge_id)
            )
        # The WAL ship hook reads ``now`` off this run's engine.
        self._run_engine = state.engine
        if self._replication is not None:
            self._replication.begin_run(state.engine)
        self._configure_load_tracking(state)
        state.frame_body = frame_pipeline(
            state,
            [
                Lane(replica.server, replica.node, client_edge, edge_cloud)
                for replica, client_edge, edge_cloud in zip(
                    self.replicas, self._client_edge, self._edge_cloud
                )
            ],
            self.cloud,
            self.policy,
            self.config.base,
            route=(
                partial(self._route_arrival, state)
                if isinstance(self.router, MigratingRouter)
                else None
            ),
            load_window=self.config.migration_window,
        )
        return state

    def _finish_run(self, state: "_RunState") -> ClusterRunResult:
        """Drain the engine and assemble the run's result."""
        drain(state.engine)
        # The body closes over the state that holds it; drop the cycle
        # instead of leaving a run's state to the cycle collector.
        state.frame_body = None
        # Flush any coordinator batches still open at the end of the run
        # (latency lands in the policy stats; no frame is left waiting).
        for replica in self.replicas:
            replica.policy.commit(now=state.makespan)
        return self._collect(state)

    def _configure_load_tracking(self, state: "_RunState") -> None:
        """Switch off per-server interval retention when nothing reads load.

        Windowed :meth:`~repro.sim.engine.Server.load` queries are
        consumed by the load shedder, the migrating router and the
        failure/failover machinery.  A ``record_frames=False`` run with
        none of those configured never calls ``load``, so the
        per-completion interval bookkeeping is pure overhead; recording
        and reference runs keep it on, exactly as the pre-optimization
        engine did.
        """
        config = self.config
        if config.record_frames:
            return
        if (
            state.shedder is not None
            or isinstance(self.router, MigratingRouter)
            or config.failure_schedule
            or config.failure_hazard_rate is not None
            or config.failback
        ):
            return
        for replica in self.replicas:
            replica.server.track_intervals = False
        state.cloud_server.track_intervals = False

    def _make_adaptation_manager(self) -> AdaptationManager | None:
        """Fresh per-run threshold controllers, or ``None`` when off."""
        config = self.config
        if config.threshold_adaptation is None:
            return None
        return AdaptationManager(
            AdaptationConfig(
                mode=config.threshold_adaptation,
                interval_s=config.adaptation_interval_s,
                target_f=config.adaptation_target_f,
            ),
            base_policy=self.policy,
            match_overlap=config.base.match_overlap,
        )

    def _pre_snapshot(self):
        """Snapshot controller state so a run reports only its own work."""
        pre_stats = [
            (r.stats.initial_commits, r.stats.final_commits, r.stats.aborts)
            for r in self.replicas
        ]
        pre_records = [frozenset(r.controller.partitions_touched()) for r in self.replicas]
        pre_policy = [r.policy.policy_stats.snapshot() for r in self.replicas]
        return pre_stats, pre_records, pre_policy, self.store.failure_aborts

    def _spawn_run_processes(self, state: "_RunState", horizon: float) -> None:
        """Spawn the failure/reshard/checkpoint/adaptation processes of one
        run, and the geo placement process last.

        ``horizon`` bounds the hazard-mode failure draws: the last frame
        arrival of a closed-loop run, or the traffic source's
        ``duration_s`` in an open-loop one.
        """
        injector = FailureInjector(
            schedule=self.config.failure_schedule,
            hazard_rate=self.config.failure_hazard_rate,
            outage_s=self.config.failure_outage_s,
        )
        schedule = injector.draw_schedule(
            num_edges=self.config.num_edges,
            horizon=horizon,
            rng=(
                self.rngs.stream("failure-hazard")
                if self.config.failure_hazard_rate is not None
                else None
            ),
        )
        for spec in schedule:
            state.engine.spawn(
                self._failure_process(state, spec),
                at=spec.fail_at,
                name=f"failure-edge-{spec.edge_id}",
            )
        for move in self.config.resharding:
            state.engine.schedule(
                move.at, lambda move=move: self._apply_reshard(state, move)
            )
        if self.config.checkpoint_interval_s is not None:
            state.engine.spawn(
                self._checkpoint_process(state),
                at=self.config.checkpoint_interval_s,
                name="checkpointer",
            )
        start_adaptation(state)
        if state.geo is not None and state.geo.moves_partitions:
            state.engine.spawn(
                self._placement_process(state), at=PLACEMENT_INTERVAL_S, name="geo-placement"
            )

    def _admit_stream(self, state: "_RunState", video: SyntheticVideo) -> None:
        """Admission-control one arriving stream; start its driver if it enters."""
        stats = state.traffic
        now = state.engine.now
        frames = video.num_frames
        stats.offered_streams += 1
        stats.offered_frames += frames
        # Best-case backlog: the wait a frame would face at the least
        # backlogged live edge right now (the queue-threshold signal).
        # Probing it is a scan over every live edge, so it is skipped
        # when the controller does not read it.
        if state.admission.needs_backlog:
            backlog = min(
                (
                    replica.server.backlog(now)
                    for replica in self.replicas
                    if not state.failed[replica.edge_id]
                ),
                default=float("inf"),
            )
        else:
            backlog = 0.0
        if not state.admission.admit(now, backlog):
            stats.rejected_streams += 1
            return
        edge_id = self.router.place(video.name)
        if state.failed[edge_id]:
            edge_id = self._failover_target(state, now)
        stats.admitted_streams += 1
        stats.admitted_frames += frames
        self._start_stream(state, video, edge_id, start=now)

    def _start_stream(
        self, state: "_RunState", video: SyntheticVideo, edge_id: int, start: float
    ) -> None:
        """Home a stream on ``edge_id`` and start its arrival driver at ``start``."""
        name = video.name
        self.replicas[edge_id].assign_stream(name)
        state.placements[name] = edge_id
        state.add_stream(name, edge_id, video.num_frames)
        state.engine.start(
            arrival_driver(
                state.engine,
                state.frame_body,
                video,
                state.sink.open(video),
                partial(self.scheduler.arrival_time, start),
            ),
            name=f"{name}-driver",
        )

    # -- failure, recovery, re-sharding -------------------------------------
    def _failure_process(self, state: "_RunState", spec: FailureSpec):
        """Engine process driving one scheduled failure/recovery cycle."""
        engine = state.engine
        # One failure at a time.  The schedule validation keeps the
        # *scheduled* windows disjoint, but a replica stays failed past
        # its recover_at while it replays its log — if that replay is
        # still running, postpone this failure until the cluster is
        # whole again (low event priority lets the same-instant rejoin
        # flip the flag first).
        while True:
            still_failed = [
                edge
                for edge in range(len(self.replicas))
                if edge != spec.edge_id and state.failed[edge]
            ]
            if not still_failed:
                break
            wake = max(state.wake_at[edge] for edge in still_failed)
            yield engine.at(max(engine.now, wake), priority=1)
        failed_at = engine.now
        state.failed[spec.edge_id] = True
        state.wake_at[spec.edge_id] = spec.recover_at
        replica = self.replicas[spec.edge_id]

        # Streams homed here fail over to the least-loaded live edge
        # through the migration machinery (their in-flight frames stay
        # tied to this replica and resolve below).
        failed_over = list(replica.streams)
        for stream in failed_over:
            self._move_stream(
                state,
                stream,
                spec.edge_id,
                self._failover_target(state, engine.now),
                replica.server.load(engine.now, window=self.config.migration_window),
                reason="edge_failed",
            )

        # In-flight transactions resolve through the policy seam; the
        # owned partitions lose their volatile stores (the WAL survives).
        aborted = replica.fail(now=engine.now)
        state.aborted_txns.update(aborted)

        # Service comes back by warm failover (the owned partitions
        # promote their backups) or by the host restart + log replay.
        if self._replication is not None:
            recovery = self._promotion_process(state, spec, replica, failed_at)
        else:
            recovery = self._replay_process(state, spec, replica)
        replay, records, transactions = yield from recovery
        failure = FailureRecord(
            edge_id=spec.edge_id,
            failed_at=failed_at,
            recovered_at=engine.now,
            downtime=engine.now - failed_at,
            recovery_time=replay,
            records_replayed=records,
            transactions_replayed=transactions,
            txns_aborted=len(aborted),
            streams_migrated=len(failed_over),
        )
        state.failures.append(failure)

        if self._replication is not None:
            # Host restart after a warm failover: nothing to replay (it
            # owns no partitions now), so it rejoins after the base
            # restart overhead and re-enrolls as a warm standby wherever
            # a group has a free seat.
            if engine.now < spec.recover_at:
                yield engine.at(spec.recover_at)
            restart = recovery_time(0, 0)
            state.wake_at[spec.edge_id] = engine.now + restart
            yield restart
            state.failed[spec.edge_id] = False
            self._replication.reenroll(spec.edge_id, engine.now)
        if self.config.failback and failed_over:
            engine.spawn(
                self._failback_process(state, spec.edge_id, failed_over),
                at=engine.now,
                name=f"failback-edge-{spec.edge_id}",
            )

    def _replay_process(self, state: "_RunState", spec: FailureSpec, replica: EdgeReplica):
        """Cold recovery of a crashed replica; returns ``(replay time,
        records replayed, transactions replayed)``.

        The host restarts at its scheduled ``recover_at`` and rebuilds
        every owned partition from its latest checkpoint plus the
        replayed log tail; the replica only rejoins once the replay is
        done.
        """
        engine = state.engine
        yield engine.at(spec.recover_at)
        keys, records, transactions = replica.recover()
        for partition_id in replica.owned_partitions:
            self.store.partition(partition_id).available = False
        replay = recovery_time(keys, records)
        state.wake_at[spec.edge_id] = engine.now + replay
        yield replay
        for partition_id in replica.owned_partitions:
            self.store.partition(partition_id).available = True
        state.failed[spec.edge_id] = False
        return replay, records, transactions

    def _promotion_process(
        self, state: "_RunState", spec: FailureSpec, replica: EdgeReplica, failed_at: float
    ):
        """Warm failover of a crashed primary's partitions; returns
        ``(catch-up time, records caught up, transactions caught up)``.

        Runs as engine events so the downtime is *measured*: a
        failure-detection wait, then per partition an election of the
        most-caught-up backup (highest shipped LSN, ties to the lowest
        edge id), an election/re-route round trip over the new primary's
        replication channel, and a catch-up replay of only the gap
        between the winner's applied LSN and the surviving log tail.
        Promotions of a replica's partitions run in parallel; service is
        restored — and the process returns — when the slowest one
        finishes.  The crashed host still restarts at its scheduled
        ``recover_at`` (see :meth:`_failure_process`).
        """
        engine = state.engine
        manager = self._replication
        # The crashed host also loses every standby it held for other
        # primaries (standby stores are volatile); it re-enrolls from
        # the durable logs after its restart.
        manager.drop_edge(spec.edge_id)
        # Backups notice the missed heartbeats before anyone can act.
        yield FAILURE_DETECT_SECONDS

        owned = sorted(replica.owned_partitions)
        completion = engine.now
        catchup_total = 0.0
        records_caught_up = 0
        gap_transactions: set[str] = set()
        for partition_id in owned:
            group = manager.group(partition_id)
            winner = group.elect()
            if winner is None:
                # No live standby (impossible at factor >= 2 with
                # disjoint failures, but stay safe): this partition
                # waits for the host restart like the unreplicated path.
                continue
            partition = self.store.partition(partition_id)
            round_trip = manager.election_round_trip(winner, engine.now)
            applied = group.applied_lsn[winner]
            store, gap = group.promote(winner, partition.wal)
            catchup = manager.catchup_time(len(gap))
            done_at = engine.now + round_trip + catchup
            promotion = PromotionRecord(
                partition_id=partition_id,
                from_edge=spec.edge_id,
                to_edge=winner,
                failed_at=failed_at,
                promoted_at=done_at,
                applied_lsn=applied,
                records_caught_up=len(gap),
                catchup_time=catchup,
            )

            def finish(
                partition=partition,
                store=store,
                promotion=promotion,
            ) -> None:
                partition.promote(store)
                self._rehome_partition(
                    promotion.partition_id, promotion.from_edge, promotion.to_edge
                )
                state.promotions.append(promotion)

            engine.schedule(done_at, finish)
            completion = max(completion, done_at)
            catchup_total += catchup
            records_caught_up += len(gap)
            gap_transactions.update(record.transaction_id for record in gap)

        if completion > engine.now:
            yield engine.at(completion)
        # Service is restored the instant the slowest promotion lands;
        # that — not the host restart — is the measured downtime.
        return catchup_total, records_caught_up, len(gap_transactions)

    def _failback_process(self, state: "_RunState", edge_id: int, streams: list[str]):
        """Return failed-over streams to their recovered home edge.

        Reuses the migration machinery's hysteresis: each displaced
        stream gets its own :class:`~repro.cluster.router.MigrationTrigger`
        over its *interim host's* observed load, polled every migration
        window.  A stream migrates home only when its host is hot
        (``migration_high``) and the recovered edge has headroom
        (``migration_low``) — the same band that pulls streams off
        overloaded edges, pointed back at the rejoined replica, so an
        idle cluster never churns streams around for nothing.
        """
        engine = state.engine
        window = self.config.migration_window
        triggers = {
            stream: MigrationTrigger(
                high=self.config.migration_high, low=self.config.migration_low
            )
            for stream in streams
        }
        pending = list(streams)
        while pending and (state.frames_remaining > 0 or state.source_active):
            if state.failed[edge_id]:
                # Failed again: the next recovery spawns a fresh failback.
                return
            home_load = self.replicas[edge_id].server.load(engine.now, window=window)
            for stream in list(pending):
                host = state.current_edge.get(stream)
                if host is None or host == edge_id or state.frames_left.get(stream, 0) <= 0:
                    pending.remove(stream)
                    continue
                host_load = self.replicas[host].server.load(engine.now, window=window)
                if home_load > self.config.migration_low:
                    break  # no headroom at home; nobody returns this round
                if not triggers[stream].observe(host_load):
                    continue
                self._move_stream(state, stream, host, edge_id, host_load, reason="edge_recovered")
                pending.remove(stream)
            yield window

    def _failover_target(self, state: "_RunState", now: float) -> int:
        """Least-loaded live edge (ties to the lowest id)."""
        candidates = [
            edge_id
            for edge_id in range(len(self.replicas))
            if not state.failed[edge_id]
        ]
        if not candidates:
            raise RuntimeError("no live edge to fail streams over to")
        return min(
            candidates,
            key=lambda edge_id: (
                self.replicas[edge_id].server.load(
                    now, window=self.config.migration_window
                ),
                edge_id,
            ),
        )

    def _apply_reshard(self, state: "_RunState", move: ReshardSpec) -> None:
        """Move one partition between edges: checkpoint-copy + log tail."""
        from_edge = self._partition_home[move.partition_id]
        if from_edge == move.to_edge:
            return
        if state.failed[from_edge] or state.failed[move.to_edge]:
            # A failed endpoint cannot ship or receive the partition; the
            # scheduled move is dropped (visible as a missing record).
            return
        outcome = self.store.transfer_partition(move.partition_id)
        self._rehome_partition(move.partition_id, from_edge, move.to_edge)
        record = ReshardRecord(
            time=state.engine.now,
            partition_id=move.partition_id,
            from_edge=from_edge,
            to_edge=move.to_edge,
            keys_copied=outcome.keys_copied,
            records_shipped=outcome.records_shipped,
        )
        state.reshards.append(record)

    def _placement_process(self, state: "_RunState"):
        """Periodically move partitions where the run's geo tier says they
        belong (checkpoint-copy + log tail, as a re-shard ships them)."""
        geo = state.geo
        while state.frames_remaining > 0 or state.source_active:
            for partition_id in range(self.config.num_partitions):
                to_edge = geo.placement_target(partition_id, state.failed)
                if to_edge is None:
                    continue
                self.store.transfer_partition(partition_id)
                self._rehome_partition(partition_id, self._partition_home[partition_id], to_edge)
                geo.note_placed(partition_id)
            yield PLACEMENT_INTERVAL_S

    def _rehome_partition(self, partition_id: int, from_edge: int, to_edge: int) -> None:
        """Hand ``partition_id`` from one replica to another: the one re-home
        step of a re-shard, a promotion and a geo placement move."""
        self.replicas[from_edge].release_partition(partition_id)
        self.replicas[to_edge].adopt_partition(partition_id)
        self._partition_home[partition_id] = to_edge

    def _checkpoint_process(self, state: "_RunState"):
        """Periodic cluster-wide checkpointer (bounds recovery replay)."""
        interval = self.config.checkpoint_interval_s
        while state.frames_remaining > 0 or state.source_active:
            for partition_id in self.store.partition_ids():
                partition = self.store.partition(partition_id)
                if partition.available:
                    partition.take_checkpoint()
            state.checkpoints += 1
            yield interval

    # -- runtime routing ----------------------------------------------------
    def _route_arrival(self, state: "_RunState", stream_name: str) -> int:
        """Home edge of an arriving frame under the ``"migrating"`` policy.

        This is where the engine's runtime visibility feeds back into
        routing: the router watches the observed (windowed) utilization
        of the stream's edge and, when its hysteresis trigger fires,
        re-routes the stream's remaining frames to the least-utilized
        edge.  (Every other policy keeps ``state.current_edge`` as is.)
        """
        edge_id = state.current_edge[stream_name]
        now = state.engine.now
        # A failed edge's drained server reports a near-zero load; it
        # must never look like a migration target, so its load is
        # reported as saturated until it rejoins.
        loads = [
            float("inf")
            if state.failed[replica.edge_id]
            else replica.server.load(now, window=self.config.migration_window)
            for replica in self.replicas
        ]
        target = self.router.decide(edge_id, loads)
        if target is None:
            return edge_id
        self._move_stream(state, stream_name, edge_id, target, loads[edge_id])
        return target

    def _move_stream(
        self,
        state: "_RunState",
        stream: str,
        from_edge: int,
        to_edge: int,
        utilization: float,
        reason: str | None = None,
    ) -> None:
        """Re-home ``stream`` on ``to_edge``: the one migration step.

        Every move — load-driven, failover (``reason="edge_failed"``) or
        failback (``reason="edge_recovered"``) — is kept as a
        :class:`~repro.cluster.results.MigrationRecord`, which is what the
        report reads.
        """
        self.replicas[from_edge].remove_stream(stream)
        self.replicas[to_edge].assign_stream(stream)
        state.current_edge[stream] = to_edge
        state.migrations.append(
            MigrationRecord(state.engine.now, stream, from_edge, to_edge, utilization, reason)
        )

    # -- result assembly ----------------------------------------------------
    def _collect(self, state: _RunState) -> ClusterRunResult:
        pre_stats, pre_records, pre_policy, pre_failure_aborts = state.baseline
        stats = ControllerStats()
        policy_stats = PolicyStats()
        total = cross_edge = multi_partition = 0
        edges: list[EdgeMetrics] = []
        for replica, (initial0, final0, aborts0), seen, policy0 in zip(
            self.replicas, pre_stats, pre_records, pre_policy
        ):
            stats.initial_commits += replica.stats.initial_commits - initial0
            stats.final_commits += replica.stats.final_commits - final0
            stats.aborts += replica.stats.aborts - aborts0
            policy_stats.accumulate(replica.policy.policy_stats.since(policy0))
            replica_total, replica_cross, replica_multi = (
                replica.transaction_partition_counts(exclude=seen)
            )
            total += replica_total
            cross_edge += replica_cross
            multi_partition += replica_multi
            edges.append(
                EdgeMetrics(
                    edge_id=replica.edge_id,
                    machine_name=replica.machine.name,
                    owned_partitions=tuple(sorted(replica.owned_partitions)),
                    streams=tuple(replica.streams),
                    frames_processed=state.frames_on_edge[replica.edge_id],
                    queue_jobs=replica.server.jobs,
                    busy_time=replica.server.busy_time,
                    utilization=replica.server.utilization(state.makespan),
                    mean_queue_delay=replica.server.mean_wait,
                    max_queue_delay=replica.server.max_wait,
                )
            )
        # Folded in append order with ``+=``: ``sum`` of floats is
        # compensated on Python 3.12 and would not be bit-identical.
        downtime = replay = 0.0
        records = transactions = 0
        for failure in state.failures:
            downtime += failure.downtime
            replay += failure.recovery_time
            records += failure.records_replayed
            transactions += failure.transactions_replayed
        return ClusterRunResult(
            placements=state.placements,
            per_stream=state.sink.results,
            edges=edges,
            makespan=state.makespan,
            stats=stats,
            **state.sink.aggregate()._asdict(),
            total_transactions=total,
            cross_edge_transactions=cross_edge,
            multi_partition_transactions=multi_partition,
            migrations=tuple(state.migrations),
            policy_stats=policy_stats,
            failures=tuple(state.failures),
            reshards=tuple(state.reshards),
            downtime_s=downtime,
            recovery_time_s=replay,
            wal_records_replayed=records,
            transactions_replayed=transactions,
            txns_aborted_by_failure=len(state.aborted_txns)
            + (self.store.failure_aborts - pre_failure_aborts),
            checkpoints=state.checkpoints,
            traffic=state.traffic,
            batch_flushes=tuple(state.flushes),
            replication=(
                self._replication.summary(state.promotions)
                if self._replication is not None
                else None
            ),
            adaptation=(
                state.adaptation.report_fields() if state.adaptation is not None else None
            ),
            geo=state.geo.summary() if state.geo is not None else None,
        )

    # -- banks --------------------------------------------------------------
    def _default_bank_factory(self, edge_id: int) -> TransactionBank:
        """Per-replica YCSB-A bank (the single-edge default, namespaced)."""
        workload = YCSBWorkload(
            rng=self.rngs.stream(f"ycsb-{edge_id}"),
            operations_per_transaction=self.config.base.operations_per_transaction,
        )
        bank = TransactionBank()
        bank.register(
            f"e{edge_id}-detection", ANY_LABEL, frame_factory=workload.draft_transactions
        )
        return bank


def empty_bank_factory(edge_id: int) -> TransactionBank:
    """Bank factory registering no transactions (the ``"none"`` workload).

    Detections trigger nothing, so every frame is pure detection +
    queueing work — the configuration the scale-stress scenario uses to
    measure the engine hot path without transaction-processing cost.
    """
    return TransactionBank()


def hotspot_bank_factory(
    seed: int,
    key_range: int = 100,
    updates_per_transaction: int = 5,
    final_updates: int = 1,
) -> BankFactory:
    """Bank factory whose replicas all hammer one shared hot key range.

    Every detection triggers a :class:`~repro.workloads.hotspot.HotspotWorkload`
    update transaction over the *same* ``key_range`` hot keys on every
    replica, so a small range produces heavy cross-edge lock conflicts —
    the cluster analogue of the paper's Figure 6b contention experiment.
    Transaction ids are namespaced per replica so lock holders stay
    distinct.
    """
    rngs = RngRegistry(seed)

    def factory(edge_id: int) -> TransactionBank:
        workload = HotspotWorkload(
            rng=rngs.stream(f"hotspot-{edge_id}"),
            key_range=key_range,
            updates_per_transaction=updates_per_transaction,
            final_updates=final_updates,
            key_prefix="hot",
            txn_prefix=f"e{edge_id}-hot",
        )
        bank = TransactionBank()
        bank.register(
            f"e{edge_id}-hotspot",
            ANY_LABEL,
            frame_factory=lambda detections, ids: workload.draft_transactions(len(detections)),
        )
        return bank

    return factory
