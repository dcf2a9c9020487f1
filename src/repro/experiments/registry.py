"""Named scenarios and sweeps — the paper's evaluation grid, by name.

``python -m repro scenario fig2-v4`` or ``get_scenario("fig2-v4")``
resolve a registered name to a :class:`ScenarioSpec`; registered sweeps
do the same for whole evaluation grids (the cluster scale-out matrix,
the cloud-contention series, the threshold heatmap).  New workloads cost
one ``@register_scenario`` entry instead of a new CLI subcommand or a
bespoke benchmark loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.spec import ScenarioSpec
from repro.experiments.sweep import Sweep, SweepAxis
from repro.geo.wan import CROSS_REGION_POLICIES, PLACEMENTS


@dataclass(frozen=True)
class RegisteredScenario:
    """One named scenario: how to build its spec, and why it exists."""

    name: str
    description: str
    build: Callable[[], ScenarioSpec]


@dataclass(frozen=True)
class RegisteredSweep:
    """One named sweep (a whole evaluation grid)."""

    name: str
    description: str
    build: Callable[[], Sweep]


_SCENARIOS: dict[str, RegisteredScenario] = {}
_SWEEPS: dict[str, RegisteredSweep] = {}


def _first_doc_line(build: Callable) -> str:
    """Description fallback: the builder's first docstring line, or ``""``
    (an undocumented lambda must still register)."""
    lines = (build.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def register_scenario(name: str, description: str = ""):
    """Decorator registering a zero-argument spec builder under ``name``."""

    def decorate(build: Callable[[], ScenarioSpec]) -> Callable[[], ScenarioSpec]:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        doc = description or _first_doc_line(build)
        _SCENARIOS[name] = RegisteredScenario(name=name, description=doc, build=build)
        return build

    return decorate


def register_sweep(name: str, description: str = ""):
    """Decorator registering a zero-argument sweep builder under ``name``."""

    def decorate(build: Callable[[], Sweep]) -> Callable[[], Sweep]:
        if name in _SWEEPS:
            raise ValueError(f"sweep {name!r} is already registered")
        doc = description or _first_doc_line(build)
        _SWEEPS[name] = RegisteredSweep(name=name, description=doc, build=build)
        return build

    return decorate


def get_scenario(name: str) -> ScenarioSpec:
    """Spec of one registered scenario (KeyError names the known ones)."""
    try:
        entry = _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    # Built outside the except so a builder's own KeyError propagates
    # instead of being misreported as an unknown name.
    return entry.build()


def get_sweep(name: str) -> Sweep:
    """One registered sweep (KeyError names the known ones)."""
    try:
        entry = _SWEEPS[name]
    except KeyError:
        known = ", ".join(sorted(_SWEEPS))
        raise KeyError(f"unknown sweep {name!r}; known sweeps: {known}") from None
    return entry.build()


def list_scenarios() -> list[RegisteredScenario]:
    """Every registered scenario, sorted by name."""
    return [_SCENARIOS[name] for name in sorted(_SCENARIOS)]


def list_sweeps() -> list[RegisteredSweep]:
    """Every registered sweep, sorted by name."""
    return [_SWEEPS[name] for name in sorted(_SWEEPS)]


# -- the paper's figure/table scenarios --------------------------------------
def _register_figure_scenarios() -> None:
    for video in ("v1", "v2", "v3", "v4"):
        name = f"fig2-{video}"

        def build(video: str = video) -> ScenarioSpec:
            return ScenarioSpec(video=video, frames=80)

        register_scenario(
            name,
            f"Figure 2: Croesus latency/accuracy on video {video} "
            "(80 frames, default thresholds)",
        )(build)

    for video in ("v1", "v2", "v3", "v4"):
        for system in ("edge-only", "cloud-only"):
            name = f"table1-{system}-{video}"

            def build(video: str = video, system: str = system) -> ScenarioSpec:
                return ScenarioSpec(system=system, video=video, frames=80)

            register_scenario(
                name,
                f"Table 1 baseline: {system} on video {video} (80 frames)",
            )(build)


_register_figure_scenarios()


@register_scenario("fig4-ms-ia", "Figure 4: Croesus under MS-IA on video v1 (80 frames)")
def _fig4_ms_ia() -> ScenarioSpec:
    return ScenarioSpec(video="v1", frames=80, consistency="ms-ia")


@register_scenario("fig4-ms-sr", "Figure 4: Croesus under MS-SR on video v1 (80 frames)")
def _fig4_ms_sr() -> ScenarioSpec:
    return ScenarioSpec(video="v1", frames=80, consistency="ms-sr")


@register_scenario(
    "fig6c-compression",
    "Figure 6c hybrid: Croesus with compressed uplink frames on video v4",
)
def _fig6c_compression() -> ScenarioSpec:
    return ScenarioSpec(system="croesus-compression", video="v4", frames=80)


@register_scenario(
    "fig6c-difference",
    "Figure 6c hybrid: Croesus with compression + difference communication on video v4",
)
def _fig6c_difference() -> ScenarioSpec:
    return ScenarioSpec(system="croesus-difference", video="v4", frames=80)


# -- cluster scenarios --------------------------------------------------------
#: Seed shared with the benchmark harness (bench_common.BENCH_SEED).
_BENCH_SEED = 2022


def _bench_cluster(**overrides) -> ScenarioSpec:
    """One cell of the benchmark harness's contention-heavy cluster grid."""
    base = dict(
        deployment="cluster",
        streams=8,
        frames=10,
        seed=_BENCH_SEED,
        consistency="ms-sr",
        workload="hotspot",
        hot_key_range=50,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@register_scenario(
    "cluster-small",
    "Smoke-sized cluster: 2 edges x 4 streams x 6 frames (the golden-pin seed)",
)
def _cluster_small() -> ScenarioSpec:
    return ScenarioSpec(deployment="cluster", num_edges=2, streams=4, frames=6, seed=11)


@register_scenario(
    "cluster-uniform", "Benchmark cell: 4 edges, round-robin placement, hotspot contention"
)
def _cluster_uniform() -> ScenarioSpec:
    return _bench_cluster(num_edges=4, router="round-robin")


@register_scenario(
    "cluster-hotspot", "Benchmark cell: 4 edges, skewed hotspot placement, hotspot contention"
)
def _cluster_hotspot() -> ScenarioSpec:
    return _bench_cluster(num_edges=4, router="hotspot")


@register_scenario(
    "cluster-finite-cloud",
    "Benchmark cell: 4 edges with only 2 cloud servers (cloud queueing visible)",
)
def _cluster_finite_cloud() -> ScenarioSpec:
    return _bench_cluster(num_edges=4, router="round-robin", cloud_servers=2)


@register_scenario(
    "cluster-migration",
    "Runtime migration: 4 edges, migrating router, 2 long + 6 short streams at 5 fps",
)
def _cluster_migration() -> ScenarioSpec:
    return _bench_cluster(num_edges=4, router="migrating", fps=5.0, long_frames=40)


@register_scenario(
    "cluster-priority",
    "Priority serving: initial stages preempt queued finals on a saturated 2-edge cluster "
    "with sustained 5 fps arrivals",
)
def _cluster_priority() -> ScenarioSpec:
    # Sustained arrivals matter here: with the default 30 fps burst every
    # initial is queued before the first final returns, so there is
    # nothing to preempt.  At 5 fps over 20 frames, finals come back
    # while initials are still arriving and the discipline is visible.
    return _bench_cluster(
        num_edges=2, router="round-robin", fps=5.0, frames=20, edge_discipline="priority"
    )


@register_scenario(
    "cluster-batched-2pc",
    "Batched 2PC: coordinator round trips amortised per window on the contention cluster",
)
def _cluster_batched_2pc() -> ScenarioSpec:
    return _bench_cluster(num_edges=4, router="round-robin", transaction_policy="batched-2pc")


@register_scenario(
    "failure-recovery",
    "Availability: edge 1 fails at t=2.5s and recovers at t=4s by WAL replay "
    "(1s checkpoints, 4 edges, sustained 5 fps arrivals)",
)
def _failure_recovery() -> ScenarioSpec:
    # Sustained arrivals keep finals in flight when the edge dies, so the
    # failure visibly aborts transactions, migrates streams, and leaves a
    # log tail for recovery to replay.
    return _bench_cluster(
        num_edges=4,
        router="round-robin",
        fps=5.0,
        frames=30,
        checkpoint_interval_s=1.0,
        failure_schedule=((1, 2.5, 4.0),),
    )


@register_scenario(
    "replicated-failover",
    "Warm failover: the failure-recovery scenario at replication factor 2 — "
    "edge 1's partition promotes its synchronously-shipped backup instead of "
    "waiting out the restart + WAL replay",
)
def _replicated_failover() -> ScenarioSpec:
    return _failure_recovery().with_(replication_factor=2)


def _hazard_cluster(**overrides) -> ScenarioSpec:
    """The availability-sweep base: seeded hazard failures on 4 edges.

    The hazard draws come from the dedicated ``failure-hazard`` stream
    and depend only on the seed, the edge count, and the run horizon —
    none of which the replication axes touch — so every cell of a
    ``replication_factor`` sweep executes the *same* failure schedule
    and downtime differences are attributable to the failover path
    alone.
    """
    base = dict(
        num_edges=4,
        router="round-robin",
        fps=5.0,
        frames=30,
        checkpoint_interval_s=1.0,
        failure_hazard_rate=0.25,
        failure_outage_s=1.5,
    )
    base.update(overrides)
    return _bench_cluster(**base)


@register_scenario(
    "resharding",
    "Elasticity: partition 0 moves from edge 0 to edge 1 at t=2s by "
    "checkpoint-copy plus a log-shipped tail",
)
def _resharding() -> ScenarioSpec:
    return _bench_cluster(
        num_edges=4,
        router="round-robin",
        fps=5.0,
        frames=30,
        checkpoint_interval_s=1.0,
        resharding=((2.0, 0, 1),),
    )


# -- online threshold adaptation ----------------------------------------------
def _adaptive_cluster(**overrides) -> ScenarioSpec:
    """The adaptation base cell: 2 edges x 4 streams of 40 frames at 5 fps.

    The pacing is what makes adaptation observable: at 5 fps the
    arrivals span 8 simulated seconds (16 controller ticks at the 0.5 s
    interval) and each frame's feedback returns while later frames are
    still arriving, so a mid-run threshold move changes the decisions
    of every frame after it.  At the default 30 fps burst all decisions
    happen before the first tick has any feedback to act on.
    """
    base = dict(
        deployment="cluster",
        num_edges=2,
        streams=4,
        frames=40,
        fps=5.0,
        seed=_BENCH_SEED,
        adaptation_interval_s=0.5,
        adaptation_target_f=0.8,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@register_scenario(
    "adaptive-thresholds",
    "Online adaptation: per-stream coordinate-descent retuning over each "
    "stream's validated history (2 edges x 4 streams, 0.5 s ticks)",
)
def _adaptive_thresholds() -> ScenarioSpec:
    return _adaptive_cluster(threshold_adaptation="retune")


# -- geo-hierarchical scenarios -----------------------------------------------
def _geo_cluster(**overrides) -> ScenarioSpec:
    """One geo cell: the contention cluster split into 2 WAN-linked regions.

    40 frames (not the bench default 10) so asynchronous reconciliation
    sees genuinely racing cross-region writes: the hotspot keys must be
    committed by both regions within one WAN flight time for a conflict
    — and an apology — to occur at all.
    """
    base = dict(
        num_edges=4,
        frames=40,
        regions=2,
        wan_link="cross-country",
    )
    base.update(overrides)
    return _bench_cluster(**base)


@register_scenario(
    "geo-baseline",
    "Geo deployment: 2 regions x 2 edges over a cross-country WAN, global 2PC "
    "for cross-region transactions (the geo golden-pin cell)",
)
def _geo_baseline() -> ScenarioSpec:
    return _geo_cluster()


# -- open-loop traffic scenarios ----------------------------------------------
def _open_loop(**overrides) -> ScenarioSpec:
    """One open-loop traffic cell: 2 edges, 2 fps streams of ~10 frames.

    Calibrated against the measured service capacity of this topology
    (~9.5 fps across the 2 edges, i.e. ~0.95 streams/s of 10-frame
    streams at 2 fps): ``offered_rate=2.2`` is a sustained >=2x
    overload, and the queue-threshold admission bound plus a
    2 apologies/s shedding budget is the control configuration the
    acceptance tests compare against the uncontrolled baseline.
    """
    base = dict(
        deployment="cluster",
        traffic="poisson",
        offered_rate=0.6,
        duration_s=16.0,
        num_edges=2,
        frames=10,
        fps=2.0,
        seed=_BENCH_SEED,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@register_scenario(
    "flash-crowd",
    "Open loop: a flash crowd spikes arrivals to 4x the base rate mid-run; "
    "queue-threshold admission and budgeted shedding absorb it",
)
def _flash_crowd() -> ScenarioSpec:
    return _open_loop(
        traffic="flash-crowd",
        peak_factor=4.0,
        admission="queue-threshold",
        apology_budget=2.0,
    )


@register_scenario(
    "diurnal",
    "Open loop: a diurnal rate curve (3x peak-to-base swing) with no "
    "overload control — the observation baseline",
)
def _diurnal() -> ScenarioSpec:
    return _open_loop(traffic="diurnal", peak_factor=3.0)


@register_scenario(
    "sustained-overload",
    "Open loop: sustained Poisson arrivals at ~2x measured capacity, held "
    "stable by queue-threshold admission and a 2 apologies/s shedding budget",
)
def _sustained_overload() -> ScenarioSpec:
    return _open_loop(
        offered_rate=2.2,
        admission="queue-threshold",
        admission_rate=0.85,
        apology_budget=2.0,
        shed_threshold=0.9,
    )


# -- scale stress -------------------------------------------------------------
def _scale_stress(**overrides) -> ScenarioSpec:
    """One scale-stress cell: content-free open-loop streams, fast path.

    The ``"stress"`` preset spawns no objects and the stress model
    profiles never hallucinate (``false_positive_rate=0``), so frames
    carry no detections at all and never visit the cloud; the near-1.0
    threshold pair keeps the empty label sets out of the validation
    band either way.  Every simulated second is pure engine/queueing
    work, which is what ``bench/``'s ``engine-stress`` workload times.  The
    full cell runs ~10⁵ streams (10⁶ frames) over 100 edges on the
    bounded-memory fast path.

    Offered load sits at ~85% of the measured service capacity (an edge
    serves ~5.3 fps: each frame is admitted twice and consumes ~190 ms
    of service in total).  Exactly *at* capacity the queues random-walk
    upward, concurrent streams pile up without bound, and the run
    measures queue inflation rather than engine throughput — heavy load
    without instability is the regime a wall-clock measurement wants.
    """
    base = dict(
        deployment="cluster",
        traffic="poisson",
        traffic_video="stress",
        record_frames=False,
        offered_rate=45.0,
        duration_s=2250.0,
        num_edges=100,
        frames=10,
        fps=2.0,
        stream_length="fixed",
        router="round-robin",
        workload="none",
        lower_threshold=0.99,
        upper_threshold=0.99,
        edge_model="stress-edge",
        cloud_model="stress-cloud",
        seed=_BENCH_SEED,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@register_scenario(
    "scale-stress",
    "Scale stress: ~1e5 content-free open-loop streams (1e6 frames) over 100 "
    "edges on the bounded-memory fast path",
)
def _scale_stress_full() -> ScenarioSpec:
    return _scale_stress()


@register_scenario(
    "scale-stress-smoke",
    "Scale stress, smoke-sized: ~1e3 streams (1e4 frames) over 20 edges on "
    "the fast path",
)
def _scale_stress_smoke() -> ScenarioSpec:
    return _scale_stress(offered_rate=11.0, duration_s=40.0, num_edges=20)


@register_scenario(
    "scale-stress-reference",
    "Scale stress yardstick: the smoke-sized cell on the preserved pre-"
    "optimization engine with full recording",
)
def _scale_stress_reference() -> ScenarioSpec:
    return _scale_stress(
        offered_rate=11.0,
        duration_s=40.0,
        num_edges=20,
        record_frames=True,
        reference_engine=True,
    )


# -- the cluster sweeps -------------------------------------------------------
@register_sweep(
    "cluster-scaleout",
    "Scale-out grid: 1/2/4/8 edges x round-robin/hotspot placement (MS-SR, hot keys)",
)
def _cluster_scaleout() -> Sweep:
    return Sweep(
        base=_bench_cluster(),
        axes=(
            SweepAxis("num_edges", (1, 2, 4, 8)),
            SweepAxis("router", ("round-robin", "hotspot")),
        ),
    )


@register_sweep(
    "cloud-contention",
    "Cloud-capacity series: 1/2/4 cloud servers plus the unbounded baseline, 4 edges",
)
def _cloud_contention() -> Sweep:
    return Sweep(
        base=_bench_cluster(num_edges=4, router="round-robin"),
        axis="cloud_servers",
        values=(1, 2, 4, None),
    )


@register_sweep(
    "migration-policies",
    "Placement-time least-loaded vs runtime migrating router on the uneven workload",
)
def _migration_policies() -> Sweep:
    return Sweep(
        base=_bench_cluster(num_edges=4, fps=5.0, long_frames=40),
        axis="router",
        values=("least-loaded", "migrating"),
    )


@register_sweep(
    "txn-policies",
    "Transaction-policy grid: immediate vs batched vs async 2PC on the contention cluster",
)
def _txn_policies() -> Sweep:
    return Sweep(
        base=_bench_cluster(num_edges=4, router="round-robin"),
        axis="transaction_policy",
        values=("immediate-2pc", "batched-2pc", "async-2pc"),
    )


@register_sweep(
    "failure-recovery",
    "Recovery-time series: checkpoint interval 0.5/1/2 s and no checkpoints at all, "
    "one mid-run edge failure",
)
def _failure_recovery_sweep() -> Sweep:
    return Sweep(
        base=_failure_recovery(),
        axis="checkpoint_interval_s",
        values=(0.5, 1.0, 2.0, None),
    )


@register_sweep(
    "replication-availability",
    "Availability sweep: replication factor 1/2/3 under the same seeded "
    "hazard-drawn failures — restart + WAL replay vs warm failover downtime",
)
def _replication_availability_sweep() -> Sweep:
    return Sweep(
        base=_hazard_cluster(),
        axis="replication_factor",
        values=(1, 2, 3),
    )


@register_sweep(
    "replication-modes",
    "Log-shipping discipline grid at factor 2: sync vs quorum vs async "
    "acknowledgement on the hazard-failure cluster",
)
def _replication_modes_sweep() -> Sweep:
    return Sweep(
        base=_hazard_cluster(replication_factor=2),
        axis="replication_mode",
        values=("sync", "quorum", "async"),
    )


@register_sweep(
    "resharding",
    "Elasticity series: 0, 1, and 2 scheduled partition moves on the contention cluster",
)
def _resharding_sweep() -> Sweep:
    return Sweep(
        base=_resharding(),
        axis="resharding",
        values=((), ((2.0, 0, 1),), ((2.0, 0, 1), (3.0, 2, 3))),
    )


@register_sweep(
    "sustained-overload",
    "Offered-load series under overload control: 0.5/0.9/1.5/2.2 streams/s "
    "(the last is >=2x measured capacity) with queue-threshold admission",
)
def _sustained_overload_sweep() -> Sweep:
    return Sweep(
        base=_sustained_overload(),
        axis="offered_rate",
        values=(0.5, 0.9, 1.5, 2.2),
    )


@register_sweep(
    "overload-control",
    "Control grid at ~2x overload: admission policy x apology budget "
    "(no budget = no shedding), trading shed rate against tail latency",
)
def _overload_control_sweep() -> Sweep:
    return Sweep(
        base=_sustained_overload(),
        axes=(
            SweepAxis("admission", ("none", "token-bucket", "queue-threshold")),
            SweepAxis("apology_budget", (None, 2.0)),
        ),
    )


@register_sweep(
    "geo-commit-policies",
    "Cross-region commit grid: global 2PC vs coordinator-migrated 2PC vs "
    "asynchronous reconciliation with apologies, 2 regions over a "
    "cross-country WAN",
)
def _geo_commit_policies_sweep() -> Sweep:
    return Sweep(
        base=_geo_cluster(),
        axis="cross_region_policy",
        values=CROSS_REGION_POLICIES,
    )


@register_sweep(
    "geo-placement",
    "Geo placement grid: static partition homes vs dominant-region re-homing "
    "on 4 single-edge regions with deliberately uneven stream demand",
)
def _geo_placement_sweep() -> Sweep:
    # 6 streams over 4 regions: region 0 hosts two, the rest one each,
    # so the shared hot partitions are demonstrably dominated by region 0
    # and the dominant-region mover has real work to do.
    return Sweep(
        base=_geo_cluster(regions=4, streams=6),
        axis="placement",
        values=PLACEMENTS,
    )


@register_sweep(
    "static-vs-adaptive",
    "Adaptation grid: static thresholds vs the feedback controller vs "
    "per-stream coordinate-descent retuning, on the paced adaptation cell",
)
def _static_vs_adaptive_sweep() -> Sweep:
    return Sweep(
        base=_adaptive_cluster(),
        axis="threshold_adaptation",
        values=(None, "feedback", "retune"),
    )


@register_sweep(
    "threshold-grid",
    "Threshold heatmap: (lower, upper) cross product on video v2 (invalid pairs skipped)",
)
def _threshold_grid() -> Sweep:
    values = (0.0, 0.2, 0.4, 0.6, 0.8)
    return Sweep(
        base=ScenarioSpec(video="v2", frames=40),
        axes=(
            SweepAxis("lower_threshold", values),
            SweepAxis("upper_threshold", values),
        ),
        skip_invalid=True,
    )
