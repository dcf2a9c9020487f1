"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the single front door to both deployments:
it names everything that defines one experiment run — which deployment
(``"single"`` or ``"cluster"``), which pipeline variant, which video or
camera streams, the bandwidth thresholds, the safety level, the router,
the cloud capacity, the seed — as one frozen, hashable value with a
lossless ``to_dict()``/``from_dict()`` round trip.

The spec is deliberately a *description*, not a configuration object:
:func:`repro.experiments.runner.run` translates it into the concrete
``CroesusConfig``/``ClusterConfig`` the systems consume, so adding a new
axis to the evaluation grid means adding a field here instead of a new
CLI subcommand or benchmark loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from repro.cluster.failure import (
    FailureInjector,
    normalize_failure_schedule,
    normalize_resharding,
    validate_failure_schedule,
)
from repro.cluster.replication import REPLICATION_MODES
from repro.cluster.router import ROUTER_POLICIES
from repro.core.adaptive import ADAPTATION_MODES
from repro.detection.profiles import MODEL_LIBRARY
from repro.geo.wan import CROSS_REGION_POLICIES, PLACEMENTS
from repro.network.topology import WAN_LINKS
from repro.traffic.admission import ADMISSION_POLICIES
from repro.traffic.arrivals import ARRIVAL_PROCESSES, STREAM_LENGTHS
from repro.transactions.policy import TXN_POLICIES
from repro.video.library import VIDEO_LIBRARY

#: The two deployment shapes the runner knows how to execute.
DEPLOYMENTS = ("single", "cluster")

#: Single-edge pipeline variants (Croesus plus the paper's baselines and
#: the Figure 6c hybrid pre-processing techniques).
SINGLE_SYSTEMS = (
    "croesus",
    "edge-only",
    "cloud-only",
    "cloud-compression",
    "cloud-difference",
    "croesus-compression",
    "croesus-difference",
)

#: Transaction workloads a cluster scenario can attach to detections.
#: ``"none"`` registers no transactions at all — the scale-stress
#: scenario's pure queueing/engine configuration.
WORKLOADS = ("ycsb", "hotspot", "none")

#: Multi-stage safety levels, by their paper names.
CONSISTENCY_LEVELS = ("ms-ia", "ms-sr")

#: Edge-server admission disciplines a cluster scenario can run.
EDGE_DISCIPLINES = ("fifo", "priority")

#: Spec fields that only affect ``deployment="cluster"`` runs.
CLUSTER_FIELDS = frozenset(
    {
        "streams",
        "num_edges",
        "partitions_per_edge",
        "router",
        "fps",
        "cloud_servers",
        "workload",
        "hot_key_range",
        "long_frames",
        "num_long",
        "edge_discipline",
        "failure_schedule",
        "checkpoint_interval_s",
        "resharding",
        "traffic",
        "offered_rate",
        "duration_s",
        "peak_factor",
        "stream_length",
        "admission",
        "admission_rate",
        "shed_threshold",
        "apology_budget",
        "failback",
        "failure_hazard_rate",
        "failure_outage_s",
        "record_frames",
        "reference_engine",
        "traffic_video",
        "replication_factor",
        "replication_mode",
        "wal_group_commit_window_ms",
        "regions",
        "wan_link",
        "cross_region_policy",
        "placement",
    }
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that defines one experiment scenario.

    Attributes
    ----------
    deployment:
        ``"single"`` (one edge node, one video) or ``"cluster"`` (many
        edge replicas, many camera streams).
    system:
        Single-edge pipeline variant (see :data:`SINGLE_SYSTEMS`);
        ignored by cluster runs, which always execute Croesus.
    video:
        Video preset key (``"v1"``..``"v5"``) of a single-edge run.
        Cluster runs cycle every preset over their camera streams.
    frames:
        Frames per stream (the *short* stream length when
        ``long_frames`` is set).
    seed:
        Master seed of the run.
    lower_threshold, upper_threshold:
        The bandwidth-thresholding pair ``(θL, θU)``.
    consistency:
        ``"ms-ia"`` or ``"ms-sr"``.
    streams:
        Number of concurrent camera streams (cluster only).
    num_edges, partitions_per_edge, router, fps, cloud_servers:
        Cluster topology: replica count, store partitions per replica,
        placement policy, per-stream capture rate, and the cloud's
        concurrent-validation capacity (``None`` = unbounded).
    workload, hot_key_range:
        Transaction workload each detection triggers on the cluster:
        ``"ycsb"`` (independent per-replica YCSB-A, the default) or
        ``"hotspot"`` (every replica hammers the same ``hot_key_range``
        hot keys, the paper's contention scenario).
    long_frames, num_long:
        When ``long_frames`` is set, the first ``num_long`` streams run
        for ``long_frames`` frames while the rest run for ``frames`` —
        the uneven workload runtime stream migration exists for.
    transaction_policy:
        Commit policy of the consistency layer (sweepable like any
        axis): ``"immediate-2pc"`` (the default, synchronous and free),
        ``"batched-2pc"`` (coordinator round trips amortised per
        window), or ``"async-2pc"`` (prepare overlaps cloud
        validation).  Applies to both deployments.
    edge_discipline:
        Cluster edge-server admission: ``"fifo"`` (default) or
        ``"priority"``, under which initial stages preempt queued final
        stages for a faster initial response.
    failure_schedule:
        Scheduled replica failures (cluster only): a tuple of
        ``(edge_id, fail_at_s, recover_at_s)`` triples.  A failing edge
        drains, its streams fail over, its in-flight transactions
        resolve through the transaction-policy seam, and recovery
        replays the write-ahead log from the last checkpoint before the
        replica rejoins.
    checkpoint_interval_s:
        Period of the cluster's checkpointer (``None`` = no periodic
        checkpoints, so recovery replays the whole log) — the axis the
        ``failure-recovery`` sweep turns.
    resharding:
        Scheduled runtime partition moves (cluster only): a tuple of
        ``(at_s, partition_id, to_edge)`` triples, each executed as a
        checkpoint-copy plus a log-shipped tail.
    traffic:
        Open-loop arrival process (cluster only).  ``None`` (the
        default) runs the closed-loop finite workload built from
        ``streams``/``frames``; an :data:`~repro.traffic.arrivals.ARRIVAL_PROCESSES`
        name instead injects streams at runtime from a seeded
        :class:`~repro.traffic.source.TrafficSource`, with ``frames``
        as the mean stream length and ``offered_rate``/``duration_s``/
        ``peak_factor``/``stream_length`` shaping the process.
    offered_rate, duration_s, peak_factor, stream_length:
        Open-loop traffic shape: time-averaged arrival rate in
        streams/s, run horizon in seconds, peak-to-average rate ratio
        of the diurnal and flash-crowd curves, and the stream-length
        distribution (one of :data:`~repro.traffic.arrivals.STREAM_LENGTHS`).
    admission, admission_rate:
        Stream admission control of open-loop runs: ``"none"``,
        ``"token-bucket"`` (refilling at ``admission_rate`` streams/s),
        or ``"queue-threshold"``.
    shed_threshold, apology_budget:
        Frame-level load shedding of open-loop cluster runs: when the
        serving edge's windowed load reaches ``shed_threshold`` a frame
        may be degraded to an immediate apology response instead of
        processed — but only while the apology budget (``apology_budget``
        apologies/s, ``None`` disables shedding) has balance.
    failback:
        When true, streams failed over during an outage migrate *back*
        to the recovered edge through the migration-trigger hysteresis
        once the interim host is loaded and the home edge has headroom.
    failure_hazard_rate, failure_outage_s:
        Probabilistic failures: instead of an explicit
        ``failure_schedule``, draw failures from a seeded exponential
        hazard of ``failure_hazard_rate`` failures/s, each lasting
        ``failure_outage_s`` seconds.  Mutually exclusive with
        ``failure_schedule``.
    record_frames:
        What a cluster run retains, never what it simulates: true (the
        default) keeps one ``FrameTrace`` per frame plus client,
        transfer and event histories — what every golden pin reads —
        while false folds the same frames into bounded-memory streaming
        accumulators and a bounded event log (see
        :attr:`repro.cluster.config.ClusterConfig.record_frames`).
    reference_engine:
        Run the cluster's servers on the preserved pre-optimization
        reference implementation — the scale-stress benchmark's
        yardstick.  Requires ``record_frames=True``.
    traffic_video:
        Video preset every open-loop stream uses (cluster only, e.g.
        ``"stress"`` for the content-free scale-stress preset).  ``None``
        (the default) keeps the traffic source cycling the default
        presets, which is what every existing open-loop pin does.
    replication_factor, replication_mode:
        Partition replication (cluster only): every write-ahead-log
        append ships to ``replication_factor - 1`` warm backups on
        distinct edges, and a crashed primary's partitions fail over by
        promoting the most-caught-up backup instead of waiting for the
        host restart + log replay.  ``replication_mode`` picks the
        acknowledgement discipline: ``"sync"`` (ack after every backup
        applies), ``"quorum"`` (majority), or ``"async"``
        (fire-and-forget with bounded staleness).  Factor 1 — the
        default — creates no replication machinery at all.
    wal_group_commit_window_ms:
        Group-commit window of the write-ahead log (cluster only):
        appends within one window share a single log flush, mirroring
        the batched-2PC amortisation.  ``None`` (the default) flushes
        per append.
    regions, wan_link, cross_region_policy, placement:
        Geo-hierarchical deployment (cluster only).  ``regions`` groups
        the edges into that many contiguous regions under one engine
        (``num_edges`` must split evenly; 1 — the default — builds no
        geo machinery at all).  ``wan_link`` names the multi-hop
        :data:`~repro.network.topology.WAN_LINKS` route connecting the
        regions; ``cross_region_policy`` picks how cross-region
        transactions commit (:data:`~repro.geo.wan.CROSS_REGION_POLICIES`:
        ``"global-2pc"``, ``"migrated-2pc"``, or ``"async-reconcile"``);
        ``placement`` is ``"static"`` or ``"dominant-region"`` (re-home
        partitions toward the region issuing most of their accesses).
    threshold_adaptation, adaptation_interval_s, adaptation_target_f:
        Online per-stream threshold adaptation (both deployments).
        ``threshold_adaptation`` is ``None`` (static thresholds, the
        default — no adaptation machinery is built at all) or an
        :data:`~repro.core.adaptive.ADAPTATION_MODES` name:
        ``"feedback"`` drifts each stream's ``(θL, θU)`` from its
        cloud-correction rate, ``"retune"`` re-runs the incremental
        coordinate-descent tuner over the stream's validated history.
        ``adaptation_interval_s`` is the controller tick period in
        simulated seconds and ``adaptation_target_f`` the F-score floor
        the controllers steer towards.
    edge_model, cloud_model:
        Which :data:`~repro.detection.profiles.MODEL_LIBRARY` profile the
        edge model ``Me`` / cloud model ``Mc`` uses.  The defaults are
        the paper's pairing (Tiny YOLOv3 at the edge, YOLOv3-416 at the
        cloud); the ``"stress-*"`` presets keep the same latency
        distributions but hallucinate nothing, for engine benchmarks.
    """

    deployment: str = "single"
    system: str = "croesus"
    video: str = "v1"
    frames: int = 80
    seed: int = 0
    lower_threshold: float = 0.3
    upper_threshold: float = 0.7
    consistency: str = "ms-ia"
    streams: int = 4
    num_edges: int = 2
    partitions_per_edge: int = 1
    router: str = "round-robin"
    fps: float = 30.0
    cloud_servers: int | None = None
    workload: str = "ycsb"
    hot_key_range: int = 50
    long_frames: int | None = None
    num_long: int = 2
    transaction_policy: str = "immediate-2pc"
    edge_discipline: str = "fifo"
    failure_schedule: tuple[tuple[int, float, float], ...] = ()
    checkpoint_interval_s: float | None = None
    resharding: tuple[tuple[float, int, int], ...] = ()
    traffic: str | None = None
    offered_rate: float = 1.0
    duration_s: float = 8.0
    peak_factor: float = 4.0
    stream_length: str = "fixed"
    admission: str = "none"
    admission_rate: float = 1.0
    shed_threshold: float = 0.9
    apology_budget: float | None = None
    failback: bool = False
    failure_hazard_rate: float | None = None
    failure_outage_s: float = 1.0
    record_frames: bool = True
    reference_engine: bool = False
    traffic_video: str | None = None
    replication_factor: int = 1
    replication_mode: str = "sync"
    wal_group_commit_window_ms: float | None = None
    regions: int = 1
    wan_link: str = "cross-country"
    cross_region_policy: str = "global-2pc"
    placement: str = "static"
    threshold_adaptation: str | None = None
    adaptation_interval_s: float = 1.0
    adaptation_target_f: float = 0.8
    edge_model: str = "tiny-yolov3"
    cloud_model: str = "yolov3-416"

    def __post_init__(self) -> None:
        if self.edge_model not in MODEL_LIBRARY:
            known = ", ".join(sorted(MODEL_LIBRARY))
            raise ValueError(f"unknown edge_model {self.edge_model!r}; known models: {known}")
        if self.cloud_model not in MODEL_LIBRARY:
            known = ", ".join(sorted(MODEL_LIBRARY))
            raise ValueError(f"unknown cloud_model {self.cloud_model!r}; known models: {known}")
        if self.deployment not in DEPLOYMENTS:
            raise ValueError(
                f"unknown deployment {self.deployment!r}; expected one of {DEPLOYMENTS}"
            )
        if self.system not in SINGLE_SYSTEMS:
            known = ", ".join(SINGLE_SYSTEMS)
            raise ValueError(f"unknown system {self.system!r}; known systems: {known}")
        if self.video not in VIDEO_LIBRARY:
            known = ", ".join(sorted(VIDEO_LIBRARY))
            raise ValueError(f"unknown video {self.video!r}; known videos: {known}")
        if self.frames <= 0:
            raise ValueError(f"frames must be positive, got {self.frames}")
        if not 0.0 <= self.lower_threshold <= self.upper_threshold < 1.0 + 1e-9:
            raise ValueError(
                "thresholds must satisfy 0 <= lower <= upper < 1, got "
                f"({self.lower_threshold}, {self.upper_threshold})"
            )
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {self.consistency!r}; expected one of {CONSISTENCY_LEVELS}"
            )
        if self.streams <= 0:
            raise ValueError(f"streams must be positive, got {self.streams}")
        if self.num_edges < 1:
            raise ValueError(f"num_edges must be at least 1, got {self.num_edges}")
        if self.partitions_per_edge < 1:
            raise ValueError(
                f"partitions_per_edge must be at least 1, got {self.partitions_per_edge}"
            )
        if self.router not in ROUTER_POLICIES:
            known = ", ".join(ROUTER_POLICIES)
            raise ValueError(f"unknown router {self.router!r}; known policies: {known}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.cloud_servers is not None and self.cloud_servers < 1:
            raise ValueError(
                "cloud_servers must be at least 1 (or None for unbounded), got "
                f"{self.cloud_servers}"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if self.hot_key_range < 1:
            raise ValueError(f"hot_key_range must be at least 1, got {self.hot_key_range}")
        if self.long_frames is not None and self.long_frames <= 0:
            raise ValueError(f"long_frames must be positive, got {self.long_frames}")
        if not 0 <= self.num_long <= self.streams:
            raise ValueError(
                f"num_long must be in [0, streams], got {self.num_long} with "
                f"{self.streams} streams"
            )
        if self.transaction_policy not in TXN_POLICIES:
            known = ", ".join(TXN_POLICIES)
            raise ValueError(
                f"unknown transaction_policy {self.transaction_policy!r}; "
                f"known policies: {known}"
            )
        if self.edge_discipline not in EDGE_DISCIPLINES:
            raise ValueError(
                f"unknown edge_discipline {self.edge_discipline!r}; "
                f"expected one of {EDGE_DISCIPLINES}"
            )
        # The schedules accept lists (a JSON round trip yields lists) and
        # are normalised to plain float/int tuples, so ``from_dict`` of a
        # serialised spec compares equal to the original.
        failures = normalize_failure_schedule(self.failure_schedule)
        validate_failure_schedule(failures, self.num_edges)
        object.__setattr__(
            self, "failure_schedule", tuple(spec.to_tuple() for spec in failures)
        )
        moves = normalize_resharding(self.resharding)
        num_partitions = self.num_edges * self.partitions_per_edge
        for move in moves:
            if move.partition_id >= num_partitions:
                raise ValueError(
                    f"resharding names partition {move.partition_id}, but there are "
                    f"{num_partitions} partitions"
                )
            if move.to_edge >= self.num_edges:
                raise ValueError(
                    f"resharding names edge {move.to_edge}, but there are "
                    f"{self.num_edges} edges"
                )
        object.__setattr__(self, "resharding", tuple(move.to_tuple() for move in moves))
        if self.checkpoint_interval_s is not None and self.checkpoint_interval_s <= 0:
            raise ValueError(
                "checkpoint_interval_s must be positive (or None), got "
                f"{self.checkpoint_interval_s}"
            )
        if self.traffic is not None:
            if self.traffic not in ARRIVAL_PROCESSES:
                known = ", ".join(ARRIVAL_PROCESSES)
                raise ValueError(
                    f"unknown traffic process {self.traffic!r}; known processes: {known}"
                )
            if self.deployment != "cluster":
                raise ValueError(
                    "open-loop traffic requires deployment='cluster' "
                    "(the single deployment runs one finite video)"
                )
        if self.offered_rate <= 0:
            raise ValueError(f"offered_rate must be positive, got {self.offered_rate}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.peak_factor < 1.0:
            raise ValueError(f"peak_factor must be at least 1, got {self.peak_factor}")
        if self.stream_length not in STREAM_LENGTHS:
            raise ValueError(
                f"unknown stream_length {self.stream_length!r}; "
                f"expected one of {STREAM_LENGTHS}"
            )
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission {self.admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if self.admission_rate <= 0:
            raise ValueError(f"admission_rate must be positive, got {self.admission_rate}")
        if not 0.0 < self.shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {self.shed_threshold}"
            )
        if self.apology_budget is not None and self.apology_budget <= 0:
            raise ValueError(
                f"apology_budget must be positive (or None), got {self.apology_budget}"
            )
        # FailureInjector owns the hazard-mode invariants (positive rate,
        # exclusivity with the schedule, positive outage).
        FailureInjector(
            schedule=failures,
            hazard_rate=self.failure_hazard_rate,
            outage_s=self.failure_outage_s,
        )
        if self.failure_hazard_rate is not None and self.num_edges < 2:
            raise ValueError(
                "failure_hazard_rate needs at least 2 edges "
                "(streams must have a live edge to fail over to)"
            )
        if self.reference_engine and not self.record_frames:
            raise ValueError(
                "reference_engine requires record_frames=True (the reference "
                "implementation is the full-recording pre-optimization path)"
            )
        if not self.record_frames and self.deployment != "cluster":
            raise ValueError(
                "record_frames=False (the fast path) requires deployment='cluster'"
            )
        if self.traffic_video is not None:
            if self.traffic_video not in VIDEO_LIBRARY:
                known = ", ".join(sorted(VIDEO_LIBRARY))
                raise ValueError(
                    f"unknown traffic_video {self.traffic_video!r}; known videos: {known}"
                )
            if self.traffic is None:
                raise ValueError(
                    "traffic_video only applies to open-loop runs (set traffic)"
                )
        if self.replication_mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication_mode {self.replication_mode!r}; "
                f"expected one of {REPLICATION_MODES}"
            )
        if self.replication_factor < 1:
            raise ValueError(
                f"replication_factor must be at least 1, got {self.replication_factor}"
            )
        if self.replication_factor > self.num_edges:
            raise ValueError(
                f"replication_factor {self.replication_factor} exceeds num_edges "
                f"{self.num_edges} (backups live on distinct edges)"
            )
        if self.replication_factor > 1 and self.resharding:
            raise ValueError(
                "replication and scheduled re-sharding are mutually exclusive "
                "(a promotion re-homes partitions through its own protocol)"
            )
        if self.wal_group_commit_window_ms is not None and self.wal_group_commit_window_ms <= 0:
            raise ValueError(
                "wal_group_commit_window_ms must be positive (or None), got "
                f"{self.wal_group_commit_window_ms}"
            )
        if self.regions < 1:
            raise ValueError(f"regions must be at least 1, got {self.regions}")
        if self.wan_link not in WAN_LINKS:
            known = ", ".join(sorted(WAN_LINKS))
            raise ValueError(f"unknown wan_link {self.wan_link!r}; known links: {known}")
        if self.cross_region_policy not in CROSS_REGION_POLICIES:
            known = ", ".join(CROSS_REGION_POLICIES)
            raise ValueError(
                f"unknown cross_region_policy {self.cross_region_policy!r}; "
                f"known policies: {known}"
            )
        if self.placement not in PLACEMENTS:
            known = ", ".join(PLACEMENTS)
            raise ValueError(
                f"unknown placement {self.placement!r}; known placements: {known}"
            )
        if self.threshold_adaptation is not None and self.threshold_adaptation not in ADAPTATION_MODES:
            known = ", ".join(ADAPTATION_MODES)
            raise ValueError(
                f"unknown threshold_adaptation {self.threshold_adaptation!r}; "
                f"expected one of {known}"
            )
        if (
            self.threshold_adaptation is not None
            and self.deployment == "single"
            and self.system != "croesus"
        ):
            raise ValueError(
                "threshold_adaptation on the single deployment requires "
                "system='croesus' (the baselines run fixed validate intervals)"
            )
        if self.adaptation_interval_s <= 0:
            raise ValueError(
                f"adaptation_interval_s must be positive, got {self.adaptation_interval_s}"
            )
        if not 0.0 < self.adaptation_target_f <= 1.0:
            raise ValueError(
                f"adaptation_target_f must be in (0, 1], got {self.adaptation_target_f}"
            )
        if self.regions > 1:
            if self.deployment != "cluster":
                raise ValueError("regions > 1 requires deployment='cluster'")
            if self.num_edges % self.regions != 0:
                raise ValueError(
                    f"num_edges ({self.num_edges}) must split evenly into "
                    f"{self.regions} regions"
                )
            if self.transaction_policy != "immediate-2pc":
                raise ValueError(
                    "regions > 1 stacks the cross-region commit variants on "
                    "immediate-2pc; got transaction_policy="
                    f"{self.transaction_policy!r}"
                )
            if self.traffic is not None:
                raise ValueError("regions > 1 runs closed-loop only (traffic=None)")
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

    # -- derived -------------------------------------------------------------
    @property
    def thresholds(self) -> tuple[float, float]:
        return (self.lower_threshold, self.upper_threshold)

    @property
    def frame_interval(self) -> float:
        """Seconds between consecutive frames of one stream."""
        return 1.0 / self.fps

    # -- evolution -----------------------------------------------------------
    def with_(self, **overrides: Any) -> "ScenarioSpec":
        """Copy of this spec with some fields replaced (and re-validated)."""
        return replace(self, **overrides)

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON dictionary of every field (losslessly invertible)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys are rejected (a typo'd axis name must not silently
        run the default scenario); missing keys take their defaults, so
        hand-written partial dictionaries work too.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))


def spec_field_names() -> tuple[str, ...]:
    """All :class:`ScenarioSpec` field names (the sweepable axes)."""
    return tuple(spec_field.name for spec_field in fields(ScenarioSpec))
