"""Declarative scenario descriptions.

A :class:`ScenarioSpec` is the single front door to both deployments:
it names everything that defines one experiment run — which deployment
(``"single"`` or ``"cluster"``), which pipeline variant, which video or
camera streams, the bandwidth thresholds, the safety level, the router,
the cloud capacity, the seed — as one frozen, hashable value with a
lossless ``to_dict()``/``from_dict()`` round trip.

The spec is deliberately a *description*, not a configuration object:
the ``build_*_config`` functions below translate it into the concrete
``CroesusConfig``/``ClusterConfig``/``TrafficConfig`` the systems consume
(a ``ClusterConfig`` carries its ``GeoConfig``), so adding a new axis to
the evaluation grid means
adding a field here instead of a new CLI subcommand or benchmark loop.
A field declares the rest of what the axis is in its metadata (see
:func:`_axis`): whether it only affects cluster runs (read into
:data:`CLUSTER_FIELDS`) and the CLI flag that sets it, if any.

Validation has one owner per axis.  A subsystem axis is checked by the
config that consumes it — ``__post_init__`` builds those configs and
lets their errors through — so this module checks only the axes nothing
else consumes (deployment, system, video, stream shape, workload,
models) and the rules that span subsystems.  Serialisation is
``dataclasses.asdict`` over the fields.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping, NamedTuple, Sequence

from repro.cluster.config import ClusterConfig
from repro.cluster.failure import normalize_failure_schedule, normalize_resharding
from repro.cluster.replication import REPLICATION_MODES
from repro.cluster.router import ROUTER_POLICIES
from repro.core.adaptive import ADAPTATION_MODES, AdaptationConfig
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.detection.profiles import MODEL_LIBRARY
from repro.geo.system import GeoConfig
from repro.geo.wan import CROSS_REGION_POLICIES, PLACEMENTS
from repro.network.topology import WAN_LINKS
from repro.sim.engine import Server
from repro.traffic.admission import ADMISSION_POLICIES
from repro.traffic.arrivals import ARRIVAL_PROCESSES
from repro.traffic.source import TrafficConfig
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


class AxisFlag(NamedTuple):
    """The CLI flag that sets one spec axis, declared on the field.

    ``repro cluster`` adds every declared flag, in ``order`` (its place in
    ``--help``), and ``repro scenario`` the ones with an ``override`` help.  The argparse
    ``type`` and the ``cluster`` default are read off the field; ``none``
    is the flag value that stands for ``None``.
    """

    option: str
    order: int
    help: str
    override: str | None = None
    choices: Sequence[str] | None = None
    metavar: str | None = None
    none: Any = None


def _axis(
    default: Any,
    option: str | None = None,
    help: str | None = None,
    *,
    cluster: bool = False,
    **flag: Any,
) -> Any:
    """A spec field's default and declarations: ``cluster`` marks it as
    affecting only ``deployment="cluster"`` runs, and an ``option`` declares
    its :class:`AxisFlag` (``flag`` holds the flag's other columns)."""
    metadata = {"cluster": cluster}
    if option is not None:
        metadata["flag"] = AxisFlag(option, help=help, **flag)
    return field(default=default, metadata=metadata)


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
        validation).  Cluster only: on a single edge no commit has a
        remote participant, so every policy runs as ``"immediate-2pc"``
        does.
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
        default) keeps one ``FrameTrace`` per frame plus the transfer
        history — what every golden pin reads — while false
        folds the same frames into bounded-memory streaming accumulators
        (see :attr:`repro.cluster.config.ClusterConfig.record_frames`).
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
        cloud-correction rate, ``"retune"`` re-runs the exact grid
        search over the stream's validated history.
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
    frames: int = _axis(80, "--frames", "frames per stream", order=2)
    seed: int = _axis(0, "--seed", "experiment seed", order=27)
    lower_threshold: float = 0.3
    upper_threshold: float = 0.7
    consistency: str = _axis(
        "ms-ia", "--consistency", "multi-stage safety level", order=7, choices=CONSISTENCY_LEVELS
    )
    streams: int = _axis(
        4, "--streams", "number of concurrent camera streams", order=1, cluster=True
    )
    num_edges: int = _axis(2, "--edges", "number of edge replicas", order=0, cluster=True)
    partitions_per_edge: int = _axis(
        1, "--partitions-per-edge", "store partitions per edge", order=4, cluster=True
    )
    router: str = _axis(
        "round-robin", "--router", "placement policy",
        order=3, choices=ROUTER_POLICIES, cluster=True,
    )
    fps: float = _axis(
        30.0, "--fps", "capture rate of each stream (frames/second)", order=5, cluster=True
    )
    cloud_servers: int | None = _axis(
        None, "--cloud-servers", "concurrent validations the cloud can serve (0 = unbounded)",
        order=6, none=0, cluster=True,
    )
    workload: str = _axis("ycsb", cluster=True)
    hot_key_range: int = _axis(50, cluster=True)
    long_frames: int | None = _axis(None, cluster=True)
    num_long: int = _axis(2, cluster=True)
    transaction_policy: str = _axis(
        "immediate-2pc", "--txn-policy", "commit policy of the consistency layer",
        order=8, override="override the scenario's commit policy", choices=TXN_POLICIES,
        cluster=True,
    )
    edge_discipline: str = _axis(
        "fifo", "--discipline",
        "edge-server admission discipline (priority lets initial stages preempt finals)",
        order=9, choices=Server.DISCIPLINES, cluster=True,
    )
    failure_schedule: tuple[tuple[int, float, float], ...] = _axis(
        (), "--fail", "schedule a replica failure (repeatable), e.g. --fail 1:2.5:4.0",
        order=10, metavar="EDGE:FAIL_AT:RECOVER_AT", cluster=True,
    )
    checkpoint_interval_s: float | None = _axis(
        None, "--checkpoint-interval",
        "periodic WAL checkpoint interval (0 = no periodic checkpoints)",
        order=11, metavar="SECONDS", none=0.0, cluster=True,
    )
    resharding: tuple[tuple[float, int, int], ...] = _axis(
        (), "--reshard", "schedule a runtime partition move (repeatable), e.g. --reshard 2.0:0:1",
        order=12, metavar="AT:PARTITION:TO_EDGE", cluster=True,
    )
    traffic: str | None = _axis(
        None, "--traffic",
        "open-loop arrival process injecting streams at runtime "
        "(none = the closed-loop finite workload of --streams x --frames)",
        order=13, choices=("none", *ARRIVAL_PROCESSES), none="none", cluster=True,
    )
    offered_rate: float = _axis(
        1.0, "--offered-rate", "time-averaged arrival rate of the open-loop traffic",
        order=14, metavar="STREAMS_PER_S", cluster=True,
    )
    duration_s: float = _axis(
        8.0, "--duration", "arrival horizon of the open-loop traffic",
        order=15, metavar="SECONDS", cluster=True,
    )
    peak_factor: float = _axis(4.0, cluster=True)
    stream_length: str = _axis("fixed", cluster=True)
    admission: str = _axis(
        "none", "--admission", "stream admission control of open-loop runs",
        order=16, choices=ADMISSION_POLICIES, cluster=True,
    )
    admission_rate: float = _axis(1.0, cluster=True)
    shed_threshold: float = _axis(0.9, cluster=True)
    apology_budget: float | None = _axis(
        None, "--apology-budget",
        "apologies/s the load shedder may spend degrading frames "
        "under overload (omit = no shedding)",
        order=17, metavar="PER_SECOND", cluster=True,
    )
    failback: bool = _axis(False, cluster=True)
    failure_hazard_rate: float | None = _axis(None, cluster=True)
    failure_outage_s: float = _axis(1.0, cluster=True)
    record_frames: bool = _axis(True, cluster=True)
    reference_engine: bool = _axis(False, cluster=True)
    traffic_video: str | None = _axis(None, cluster=True)
    replication_factor: int = _axis(
        1, "--replication-factor",
        "copies of each partition: 1 primary + N-1 warm backups on "
        "distinct edges (1 = no replication)",
        order=18, override="override the scenario's partition replication factor",
        metavar="N", cluster=True,
    )
    replication_mode: str = _axis(
        "sync", "--replication-mode",
        "log-shipping acknowledgement discipline (sync = all backups, "
        "quorum = majority, async = fire-and-forget)",
        order=19, override="override the scenario's log-shipping acknowledgement discipline",
        choices=REPLICATION_MODES, cluster=True,
    )
    wal_group_commit_window_ms: float | None = _axis(None, cluster=True)
    regions: int = _axis(
        1, "--regions", "geo regions the edges are split into (1 = single-region cluster)",
        order=20, override="override the scenario's geo region count", metavar="N", cluster=True,
    )
    wan_link: str = _axis(
        "cross-country", "--wan-link", "multi-hop WAN path connecting the regions",
        order=21, override="override the scenario's WAN path between regions",
        choices=tuple(sorted(WAN_LINKS)), cluster=True,
    )
    cross_region_policy: str = _axis(
        "global-2pc", "--cross-region-policy", "commit variant of cross-region transactions",
        order=22, override="override the scenario's cross-region commit variant",
        choices=CROSS_REGION_POLICIES, cluster=True,
    )
    placement: str = _axis(
        "static", "--placement",
        "partition placement across regions (dominant-region re-homes "
        "partitions toward the region that uses them most)",
        order=23, override="override the scenario's geo partition placement",
        choices=PLACEMENTS, cluster=True,
    )
    threshold_adaptation: str | None = _axis(
        None, "--adaptation",
        "online per-stream threshold adaptation (feedback = windowed "
        "proportional controller, retune = incremental re-optimisation; "
        "none = the static profiled thresholds)",
        order=24,
        override="override the scenario's threshold adaptation mode (none = disable adaptation)",
        choices=("none", *ADAPTATION_MODES), none="none",
    )
    adaptation_interval_s: float = _axis(
        1.0, "--adaptation-interval", "simulated seconds between adaptation ticks",
        order=25, override="override the scenario's adaptation tick interval", metavar="SECONDS",
    )
    adaptation_target_f: float = _axis(
        0.8, "--adaptation-target",
        "F-score floor µ the controllers must hold while cutting bandwidth",
        order=26, override="override the scenario's adaptation F-score floor", metavar="F",
    )
    edge_model: str = "tiny-yolov3"
    cloud_model: str = "yolov3-416"

    def __post_init__(self) -> None:
        # A count from hand-written JSON may arrive as 2.5, true or "ten":
        # refuse it here, by name, before any range check compares it.
        for name, optional in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"{name} must be an integer, got {type(value).__name__} {value!r}"
                )
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
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {self.consistency!r}; expected one of {CONSISTENCY_LEVELS}"
            )
        if self.streams <= 0:
            raise ValueError(f"streams must be positive, got {self.streams}")
        if not self.fps > 0:  # NaN included
            raise ValueError(f"fps must be positive, got {self.fps}")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {WORKLOADS}"
            )
        if self.hot_key_range < 1:
            raise ValueError(f"hot_key_range must be at least 1, got {self.hot_key_range}")
        if self.long_frames is not None:
            # ``num_long`` is inert until this makes stream lengths uneven.
            if self.long_frames <= 0:
                raise ValueError(f"long_frames must be positive, got {self.long_frames}")
            if not 0 <= self.num_long <= self.streams:
                raise ValueError(
                    f"num_long must be in [0, streams], got {self.num_long} with "
                    f"{self.streams} streams"
                )
        # The schedules accept lists (a JSON round trip yields lists) and
        # are normalised to plain float/int tuples, so ``from_dict`` of a
        # serialised spec compares equal to the original.
        object.__setattr__(
            self,
            "failure_schedule",
            tuple(spec.to_tuple() for spec in normalize_failure_schedule(self.failure_schedule)),
        )
        object.__setattr__(
            self,
            "resharding",
            tuple(move.to_tuple() for move in normalize_resharding(self.resharding)),
        )
        # Every subsystem axis is validated by the config that consumes it,
        # whether or not this deployment (or a feature's on-switch) uses it:
        # thresholds by CroesusConfig, topology, commit policy, failures,
        # replication, adaptation and the geo tier's composition rules by
        # ClusterConfig (its geo axes by GeoConfig), the open-loop shape by
        # TrafficConfig.
        build_cluster_config(self)
        _traffic_config(self)
        # What follows are the rules no single subsystem can see.
        if self.traffic is not None and self.deployment != "cluster":
            raise ValueError(
                "open-loop traffic requires deployment='cluster' "
                "(the single deployment runs one finite video)"
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
        if (
            self.threshold_adaptation is not None
            and self.deployment == "single"
            and self.system != "croesus"
        ):
            raise ValueError(
                "threshold_adaptation on the single deployment requires "
                "system='croesus' (the baselines run fixed validate intervals)"
            )
        if self.regions > 1:
            if self.deployment != "cluster":
                raise ValueError("regions > 1 requires deployment='cluster'")
            if self.traffic is not None:
                raise ValueError("regions > 1 runs closed-loop only (traffic=None)")

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
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"ScenarioSpec payload must be a mapping, got {type(payload).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        return cls(**dict(payload))


#: Spec fields that only affect ``deployment="cluster"`` runs.
CLUSTER_FIELDS = frozenset(
    spec_field.name for spec_field in fields(ScenarioSpec) if spec_field.metadata.get("cluster")
)

#: ``(name, None allowed)`` of every integer-typed field.
_INT_FIELDS = tuple(
    (spec_field.name, spec_field.type == "int | None")
    for spec_field in fields(ScenarioSpec)
    if spec_field.type in ("int", "int | None")
)


def spec_field_names() -> tuple[str, ...]:
    """All :class:`ScenarioSpec` field names (the sweepable axes)."""
    return tuple(spec_field.name for spec_field in fields(ScenarioSpec))


# -- spec -> subsystem configs -------------------------------------------------
def _shared_axes(spec: ScenarioSpec, config_type: type) -> dict[str, Any]:
    """The spec axes ``config_type`` declares under the same field name."""
    return {
        config_field.name: getattr(spec, config_field.name)
        for config_field in fields(config_type)
        if config_field.name in spec.__dataclass_fields__
    }


def build_single_config(spec: ScenarioSpec) -> CroesusConfig:
    """The ``CroesusConfig`` a single-edge scenario translates to."""
    return CroesusConfig(
        seed=spec.seed,
        lower_threshold=spec.lower_threshold,
        upper_threshold=spec.upper_threshold,
        consistency=(
            ConsistencyLevel.MS_SR if spec.consistency == "ms-sr" else ConsistencyLevel.MS_IA
        ),
        edge_profile=MODEL_LIBRARY[spec.edge_model],
        cloud_profile=MODEL_LIBRARY[spec.cloud_model],
    )


def build_cluster_config(spec: ScenarioSpec) -> ClusterConfig:
    """The ``ClusterConfig`` a cluster scenario translates to."""
    window_ms = spec.wal_group_commit_window_ms
    return ClusterConfig(
        base=build_single_config(spec),
        router_policy=spec.router,
        frame_interval=spec.frame_interval,
        wal_group_commit_window_s=window_ms / 1000.0 if window_ms is not None else None,
        geo=GeoConfig(**_shared_axes(spec, GeoConfig)),
        **_shared_axes(spec, ClusterConfig),
    )


def _traffic_config(spec: ScenarioSpec) -> TrafficConfig:
    """The traffic axes as a ``TrafficConfig``; a closed-loop spec keeps the
    config's default process, so its shape axes are validated all the same."""
    axes = _shared_axes(spec, TrafficConfig)
    if spec.traffic is not None:
        axes["process"] = spec.traffic
    if spec.traffic_video is not None:
        # Only set when asked for: the TrafficConfig default cycles the
        # standard presets, which every existing open-loop pin relies on.
        axes["video_keys"] = (spec.traffic_video,)
    return TrafficConfig(mean_frames=spec.frames, frame_interval=spec.frame_interval, **axes)


def build_traffic_config(spec: ScenarioSpec) -> TrafficConfig:
    """The open-loop :class:`TrafficConfig` of a ``spec.traffic`` scenario."""
    if spec.traffic is None:
        raise ValueError("spec has no traffic process (closed-loop scenario)")
    return _traffic_config(spec)


def build_adaptation_config(spec: ScenarioSpec) -> AdaptationConfig:
    """The controller configuration an adaptive scenario translates to."""
    return AdaptationConfig(
        mode=spec.threshold_adaptation,
        interval_s=spec.adaptation_interval_s,
        target_f=spec.adaptation_target_f,
    )
