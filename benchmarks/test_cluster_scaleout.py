"""Cluster scale-out sweep: edges × placement × cloud capacity.

Eight camera streams run against growing clusters under MS-SR with a
shared hot key range, so remote lock conflicts and 2PC aborts are live.
For every cluster size the sweep runs both a uniform (round-robin) and a
skewed (hotspot) placement and records throughput, queueing delay, the
cross-partition transaction fraction, and the 2PC abort rate.  Two more
sweeps exercise the engine-level additions: a cloud-contention sweep
(1→4 cloud servers against an unbounded baseline), a runtime-migration
comparison (``migrating`` vs ``least-loaded`` on a hotspot workload with
unequal stream lengths), and a transaction-policy grid (immediate vs
batched vs async 2PC, asserting that batching amortises coordinator
round trips and async hides prepare latency).  The ``replication``
section runs the availability grid — replication factor x shipping mode
under identical seeded hazard failures — and asserts warm failover's
>=5x downtime cut over the restart + WAL-replay path.  The ``geo``
section runs the cross-region commit-variant grid (global vs migrated
2PC vs asynchronous reconciliation, 2 WAN-linked regions) and the
dominant-region placement pair, asserting migrated 2PC's WAN round-trip
cut and async reconciliation's latency-for-apologies trade.  Grids run on a
process pool (``Sweep.run(max_workers=...)``); bit-identity to serial
execution is pinned by ``test_parallel_sweep_matches_serial_execution``.

The ``scale_stress`` section measures the engine hot path itself: each
cell runs a registered scale-stress scenario in a fresh subprocess and
records wall clock per simulated frame (gated at 20% drift by the CI
regression gate), frames/sec, and per-process peak RSS.  The smoke-sized
fast/reference pair runs on every pass; the slow million-frame test adds
the full-scale cells and asserts the non-recording run's >=3.5x speedup
over the preserved pre-optimization engine.

All three grids run through the declarative experiment layer: each is a
registered :class:`repro.experiments.Sweep` (``cluster-scaleout``,
``cloud-contention``, ``migration-policies``) and every cell is a
:class:`repro.experiments.RunReport`, so the benchmark harness and the
programmatic API share one schema.  ``results/BENCH_cluster.json``
serialises the full report of every cell (plus the legacy summary keys,
so existing consumers of the perf trajectory keep working) and every
report is schema-validated before it lands in the artifact.

Qualitative shape asserted:
* adding edges raises throughput and drains queueing delay under
  uniform placement (the scale-out story);
* skewed placement leaves the hot edge congested, so its queueing delay
  stays above the uniform placement's at the same cluster size;
* once the store has more than one partition, transactions span remote
  partitions and the cross-partition fraction is substantial;
* adding cloud servers drains the cloud queue, and an unbounded cloud
  never queues;
* runtime migration sheds load off saturated edges, beating
  placement-time least-loaded on max edge utilization.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.regression import ARTIFACT_SCHEMA
from repro.analysis.tables import format_table
from repro.experiments import RunReport, get_scenario, get_sweep, run, validate_report

from bench_common import BENCH_SEED, measure_scenario  # noqa: E402  (benchmarks path setup)

EDGE_COUNTS = (1, 2, 4, 8)
PLACEMENTS = ("round-robin", "hotspot")
NUM_STREAMS = 8
FRAMES_PER_STREAM = 10
CLOUD_SERVER_COUNTS = (1, 2, 4)
ARTIFACT_PATH = Path(__file__).parent / "results" / "BENCH_cluster.json"

#: Acceptance floor: the non-recording run must process at least this
#: many times more frames per wall-clock second than the pre-optimization
#: engine on the full-scale cell (asserted by the slow million-frame
#: test; at smoke scale recording's accretion has not started to hurt
#: yet, so the smoke ratio is only reported, not gated).  Measured
#: 4.0-4.8x over five full pairs on a VM whose speed flips by 1.5x
#: (26.1 vs 114.9 us/frame in the quietest harness run); both cells run
#: the one frame pipeline, so the ratio is what retention and the
#: reference server cost, no longer a different simulation.
SCALE_STRESS_SPEEDUP_FLOOR = 3.5

#: Raw cProfile dump of one smoke-cell run, uploaded by CI next to the
#: perf artifact so a wall-clock regression comes with its flame data.
SCALE_STRESS_PROFILE_PATH = Path(__file__).parent / "results" / "scale_stress_smoke.prof"


def _cell(report: RunReport) -> dict:
    """One artifact cell: the legacy summary keys plus the full report."""
    validate_report(report.to_dict())
    return {**report.cluster_summary(), "report": report.to_dict()}


def _run_cell(num_edges: int, placement: str, seed: int) -> dict:
    """One standalone sweep cell (used by the timing benchmark)."""
    spec = get_scenario("cluster-uniform").with_(
        num_edges=num_edges, router=placement, seed=seed
    )
    report = run(spec)
    assert report.frames == NUM_STREAMS * FRAMES_PER_STREAM
    return _cell(report)


@pytest.fixture(scope="module")
def scaleout_results(report_writer):
    sweep = get_sweep("cluster-scaleout")
    assert sweep.base.seed == BENCH_SEED, "registered sweep must share the bench seed"
    # Sweep cells are independent seeded runs: fan the 8-cell grid over a
    # process pool (identity to serial execution is pinned below).
    results = {
        (cell.assignment["num_edges"], cell.assignment["router"]): _cell(cell.report)
        for cell in sweep.run(max_workers=2)
    }
    rows = [
        [
            num_edges,
            placement,
            f"{cell['throughput_fps']:.2f}",
            f"{cell['mean_queue_delay_ms']:.0f}",
            f"{cell['max_utilization']:.0%}",
            f"{cell['cross_partition_fraction']:.0%}",
            f"{cell['two_phase_abort_rate']:.1%}",
        ]
        for (num_edges, placement), cell in results.items()
    ]
    report_writer(
        "cluster_scaleout",
        format_table(
            [
                "edges",
                "placement",
                "throughput (fps)",
                "queue delay (ms)",
                "max utilization",
                "cross-partition",
                "2PC abort rate",
            ],
            rows,
        ),
    )
    return results


@pytest.fixture(scope="module")
def cloud_contention_results(report_writer):
    """Cloud-capacity sweep: 1→4 cloud servers plus the unbounded baseline."""
    results = {
        cell.assignment["cloud_servers"]: _cell(cell.report)
        for cell in get_sweep("cloud-contention").run()
    }
    rows = [
        [
            "unbounded" if servers is None else servers,
            f"{cell['mean_cloud_queue_delay_ms']:.0f}",
            f"{cell['mean_queue_delay_ms']:.0f}",
            f"{cell['throughput_fps']:.2f}",
        ]
        for servers, cell in results.items()
    ]
    report_writer(
        "cluster_cloud_contention",
        format_table(
            ["cloud servers", "cloud queue delay (ms)", "edge queue delay (ms)", "throughput (fps)"],
            rows,
        ),
    )
    return results


@pytest.fixture(scope="module")
def migration_results(report_writer):
    """Least-loaded vs migrating placement on the uneven hotspot workload."""
    results = {}
    for cell in get_sweep("migration-policies").run():
        policy = cell.assignment["router"]
        results[policy] = _cell(cell.report)
        results[policy]["timeline_migrations"] = float(len(cell.report.migration_events))
    rows = [
        [
            policy,
            f"{cell['max_utilization']:.0%}",
            f"{cell['mean_queue_delay_ms']:.0f}",
            f"{cell['makespan_s']:.2f}",
            int(cell["migrations"]),
        ]
        for policy, cell in results.items()
    ]
    report_writer(
        "cluster_migration",
        format_table(
            ["placement", "max utilization", "queue delay (ms)", "makespan (s)", "migrations"],
            rows,
        ),
    )
    return results


@pytest.fixture(scope="module")
def txn_policy_results(report_writer):
    """Immediate vs batched vs async 2PC on the contention cluster."""
    results = {
        cell.assignment["transaction_policy"]: _cell(cell.report)
        for cell in get_sweep("txn-policies").run(max_workers=2)
    }
    rows = [
        [
            policy,
            int(cell["report"]["coordinator_round_trips"]),
            f"{_round_trips_per_txn(cell):.2f}",
            int(cell["report"]["coordinator_batches"]),
            f"{cell['report']['overlap_saved_ms']:.1f}",
            f"{cell['report']['latency']['commit_protocol_ms']:.2f}",
            f"{cell['report']['latency']['final_ms']:.0f}",
        ]
        for policy, cell in results.items()
    ]
    report_writer(
        "cluster_txn_policies",
        format_table(
            [
                "policy",
                "coordinator RTs",
                "RTs / cross-edge txn",
                "batches",
                "overlap saved (ms)",
                "commit protocol (ms)",
                "final latency (ms)",
            ],
            rows,
        ),
    )
    return results


@pytest.fixture(scope="module")
def failure_recovery_results(report_writer):
    """Recovery time vs checkpoint interval, one mid-run edge failure."""
    results = {}
    for cell in get_sweep("failure-recovery").run(max_workers=2):
        interval = cell.assignment["checkpoint_interval_s"]
        entry = _cell(cell.report)
        # Hoist the gated availability metrics to the cell's top level so
        # the regression gate tracks recovery-time drift per interval.
        entry["recovery_time_ms"] = cell.report.recovery_time_ms
        entry["downtime_ms"] = cell.report.downtime_ms
        entry["frames_replayed"] = float(cell.report.frames_replayed)
        entry["txns_aborted_by_failure"] = float(cell.report.txns_aborted_by_failure)
        results[interval] = entry
    rows = [
        [
            "none" if interval is None else f"{interval:.1f}",
            f"{cell['recovery_time_ms']:.1f}",
            f"{cell['downtime_ms']:.0f}",
            int(cell["frames_replayed"]),
            int(cell["txns_aborted_by_failure"]),
            f"{cell['throughput_fps']:.2f}",
        ]
        for interval, cell in results.items()
    ]
    report_writer(
        "cluster_failure_recovery",
        format_table(
            [
                "checkpoint interval (s)",
                "recovery time (ms)",
                "downtime (ms)",
                "txns replayed",
                "txns aborted",
                "throughput (fps)",
            ],
            rows,
        ),
    )
    return results


#: Acceptance floor: warm failover must cut the same-schedule downtime
#: of the unreplicated restart + WAL-replay path by at least this factor.
REPLICATION_DOWNTIME_IMPROVEMENT_FLOOR = 5.0


@pytest.fixture(scope="module")
def replication_results(report_writer):
    """Replication availability grid: factor 1/2/3 (sync) plus the
    sync/quorum/async mode cells at factor 2.

    Every cell draws its failures from the same seeded hazard stream —
    the draw depends only on the seed, edge count, and horizon, none of
    which the replication axes touch — so the factor-1 cell and the
    replicated cells execute the identical failure schedule and their
    downtime difference is the failover path alone.  Cells are keyed by
    ``(replication_factor, replication_mode)``; the gated availability
    metrics are hoisted to the cell's top level.
    """
    results = {}
    for cell in get_sweep("replication-availability").run(max_workers=2):
        factor = cell.assignment["replication_factor"]
        results[(factor, "sync")] = _replication_cell(cell.report)
    for cell in get_sweep("replication-modes").run(max_workers=2):
        mode = cell.assignment["replication_mode"]
        if (2, mode) not in results:
            results[(2, mode)] = _replication_cell(cell.report)
    rows = [
        [
            factor,
            mode,
            int(cell["promotions"]),
            f"{cell['downtime_ms']:.1f}",
            f"{cell['replication_lag_ms']:.2f}",
            int(cell["log_records_shipped"]),
            f"{cell['throughput_fps']:.2f}",
        ]
        for (factor, mode), cell in sorted(results.items())
    ]
    report_writer(
        "cluster_replication",
        format_table(
            [
                "factor",
                "mode",
                "promotions",
                "downtime (ms)",
                "replication lag (ms)",
                "log records shipped",
                "throughput (fps)",
            ],
            rows,
        ),
    )
    return results


def _replication_cell(report: RunReport) -> dict:
    entry = _cell(report)
    entry["downtime_ms"] = report.downtime_ms
    entry["replication_lag_ms"] = report.replication_lag_ms
    entry["promotions"] = float(report.promotions)
    entry["log_records_shipped"] = float(report.log_records_shipped)
    return entry


@pytest.fixture(scope="module")
def geo_results(report_writer):
    """Geo-hierarchical cells: cross-region commit variants and placement.

    The commit-variant grid runs the 2-region ``geo-baseline`` cell under
    each cross-region policy; the placement pair runs the 4-region
    uneven-demand grid (its cells are keyed ``uneven-static`` /
    ``uneven-dominant-region`` so they never collide with the 2-region
    static cells).  The gated metrics — WAN round trips per cross-region
    transaction and the cross-region commit-charge p99 — are hoisted to
    each cell's top level.
    """
    results = {}
    for cell in get_sweep("geo-commit-policies").run(max_workers=2):
        policy = cell.assignment["cross_region_policy"]
        results[(policy, "static")] = _geo_cell(cell.report)
    for cell in get_sweep("geo-placement").run(max_workers=2):
        placement = cell.assignment["placement"]
        results[("global-2pc", f"uneven-{placement}")] = _geo_cell(cell.report)
    rows = [
        [
            policy,
            placement,
            f"{cell['geo']['cross_region_txn_fraction']:.0%}",
            f"{cell['wan_round_trips_per_txn']:.2f}",
            f"{cell['cross_region_p99_ms']:.0f}",
            f"{cell['geo']['wan_time_s']:.1f}",
            int(cell["geo"]["apologies"]),
            int(cell["geo"]["placement_moves"]),
        ]
        for (policy, placement), cell in results.items()
    ]
    report_writer(
        "cluster_geo",
        format_table(
            [
                "policy",
                "placement",
                "cross-region",
                "WAN RTs/txn",
                "commit p99 (ms)",
                "WAN time (s)",
                "apologies",
                "placement moves",
            ],
            rows,
        ),
    )
    return results


def _geo_cell(report: RunReport) -> dict:
    entry = _cell(report)
    entry["geo"] = report.geo
    entry["wan_round_trips_per_txn"] = report.wan_round_trips_per_txn
    entry["cross_region_p99_ms"] = report.geo["cross_region_p99_ms"]
    return entry


@pytest.fixture(scope="module")
def resharding_results(report_writer):
    """0, 1, and 2 scheduled runtime partition moves."""
    results = {}
    for cell in get_sweep("resharding").run():
        moves = len(cell.assignment["resharding"])
        entry = _cell(cell.report)
        entry["reshards"] = float(len(cell.report.reshard_events))
        results[moves] = entry
    rows = [
        [
            moves,
            int(cell["reshards"]),
            f"{cell['throughput_fps']:.2f}",
            f"{cell['cross_partition_fraction']:.0%}",
        ]
        for moves, cell in results.items()
    ]
    report_writer(
        "cluster_resharding",
        format_table(
            ["scheduled moves", "executed", "throughput (fps)", "cross-partition"], rows
        ),
    )
    return results


#: Acceptance floor: the incremental tuner must do at least this many
#: times fewer full-frame label matches than the plain evaluator would
#: have paid for the same scored pairs.
TUNER_RESCORE_REDUCTION_FLOOR = 10.0


@pytest.fixture(scope="module")
def adaptive_results(report_writer):
    """Static thresholds vs the runtime controllers on the paced cell.

    The ``static-vs-adaptive`` sweep runs the adaptation base scenario
    under no adaptation, the feedback controller, and per-stream
    coordinate-descent retuning.  The gated metrics — the cell's
    ``f_score`` (already a summary key) and the incremental tuner's
    ``tuner_frame_rescores`` — are hoisted to each cell's top level,
    alongside the grid-cost baseline the work-bound test divides by.
    """
    results = {}
    for cell in get_sweep("static-vs-adaptive").run(max_workers=2):
        mode = cell.assignment["threshold_adaptation"]
        entry = _cell(cell.report)
        entry["bandwidth_utilization"] = cell.report.bandwidth_utilization
        entry["threshold_updates"] = float(cell.report.threshold_updates)
        entry["tuner_evaluations"] = float(cell.report.tuner_evaluations)
        entry["tuner_frame_rescores"] = float(cell.report.tuner_frame_rescores)
        if cell.report.adaptation is not None:
            entry["tuner_grid_rescores"] = float(
                cell.report.adaptation["tuner_grid_rescores"]
            )
        results["static" if mode is None else mode] = entry
    rows = [
        [
            label,
            f"{cell['f_score']:.4f}",
            f"{cell['bandwidth_utilization']:.1%}",
            int(cell["threshold_updates"]),
            int(cell["tuner_evaluations"]),
            int(cell["tuner_frame_rescores"]),
            int(cell.get("tuner_grid_rescores", 0)),
        ]
        for label, cell in results.items()
    ]
    report_writer(
        "cluster_adaptive",
        format_table(
            [
                "mode",
                "F-score",
                "bandwidth",
                "threshold updates",
                "tuner evaluations",
                "frame rescores",
                "grid-cost baseline",
            ],
            rows,
        ),
    )
    return results


@pytest.fixture(scope="module")
def open_loop_results(report_writer):
    """Open-loop traffic cells: overload control vs the uncontrolled baseline.

    The ``sustained-overload`` scenario offers ~2x the cluster's measured
    service capacity.  Four cells bracket the acceptance criteria — the
    controlled configuration at one and two arrival horizons (its p99 must
    stay bounded and its goodput near capacity) and the no-control
    baseline at the same horizons (its p99 grows with run length) — plus
    the ``flash-crowd`` and ``diurnal`` shapes for the trajectory.
    """
    control = get_scenario("sustained-overload")
    baseline = control.with_(admission="none", apology_budget=None)
    specs = {
        "control": control,
        "control-long": control.with_(duration_s=control.duration_s * 2),
        "baseline": baseline,
        "baseline-long": baseline.with_(duration_s=baseline.duration_s * 2),
        "flash-crowd": get_scenario("flash-crowd"),
        "diurnal": get_scenario("diurnal"),
    }
    results = {}
    for label, spec in specs.items():
        report = run(spec)
        entry = _cell(report)
        # Hoist the gated open-loop metrics to the cell's top level so
        # the regression gate tracks goodput/shed-rate drift per cell.
        entry["goodput_fps"] = report.goodput_fps
        entry["shed_rate"] = report.shed_rate
        entry["offered_load_fps"] = report.offered_load_fps
        entry["admitted_load_fps"] = report.admitted_load_fps
        entry["p99_latency_ms"] = report.p99_latency_ms
        results[label] = entry
    rows = [
        [
            label,
            f"{cell['offered_load_fps']:.2f}",
            f"{cell['admitted_load_fps']:.2f}",
            f"{cell['goodput_fps']:.2f}",
            f"{cell['shed_rate']:.1%}",
            f"{cell['p99_latency_ms']:.0f}",
        ]
        for label, cell in results.items()
    ]
    report_writer(
        "cluster_open_loop",
        format_table(
            [
                "cell",
                "offered (fps)",
                "admitted (fps)",
                "goodput (fps)",
                "shed rate",
                "p99 latency (ms)",
            ],
            rows,
        ),
    )
    return results


def _scale_stress_cell(
    scenario: str, overrides: dict | None = None, profile_path=None
) -> dict:
    """Measure one scale-stress cell in a fresh process.

    The cell keeps the legacy summary keys and the full report like every
    other section, plus the wall-clock metrics the hot-path gate watches:
    ``wall_clock_per_frame_us`` (gated), ``frames_per_sec`` and
    ``peak_rss_mb`` (reported).
    """
    measured = measure_scenario(scenario, overrides, profile_path=profile_path)
    report = RunReport.from_dict(measured["report"])
    cell = _cell(report)
    cell["wall_clock_per_frame_us"] = measured["wall_s"] / report.frames * 1e6
    cell["frames_per_sec"] = report.frames / measured["wall_s"]
    cell["peak_rss_mb"] = measured["peak_rss_mb"]
    return cell


@pytest.fixture(scope="module")
def scale_stress_results(report_writer):
    """Engine hot-path cells: wall clock per simulated frame, fast vs
    the preserved pre-optimization engine.

    The smoke-sized pair always runs (each in its own process, so peak
    RSS is per-cell); the slow million-frame test appends its full-scale
    cells to this dict before the artifact is emitted.  Wall-clock
    metrics are machine-dependent by nature — they live next to the
    simulated metrics because drift *on the same CI runner class* is the
    regression signal the gate wants.
    """
    results = {
        "smoke": _scale_stress_cell("scale-stress-smoke"),
        "smoke-reference": _scale_stress_cell("scale-stress-reference"),
    }
    results["smoke"]["speedup_vs_reference"] = (
        results["smoke-reference"]["wall_clock_per_frame_us"]
        / results["smoke"]["wall_clock_per_frame_us"]
    )
    # A second, profiled smoke run feeds the CI profile artifact; the
    # timing cell above stays unprofiled so cProfile overhead never
    # pollutes the gated wall-clock metric.
    profiled = measure_scenario(
        "scale-stress-smoke", profile_path=SCALE_STRESS_PROFILE_PATH
    )
    report_writer("cluster_scale_stress_profile", profiled["profile_summary"].rstrip())
    _write_scale_stress_table(report_writer, results)
    return results


def _write_scale_stress_table(report_writer, results: dict) -> None:
    rows = [
        [
            label,
            cell["frames"],
            f"{cell['wall_clock_per_frame_us']:.1f}",
            f"{cell['frames_per_sec']:.0f}",
            f"{cell['peak_rss_mb']:.0f}",
            f"{cell['speedup_vs_reference']:.2f}x" if "speedup_vs_reference" in cell else "-",
        ]
        for label, cell in results.items()
    ]
    report_writer(
        "cluster_scale_stress",
        format_table(
            [
                "cell",
                "frames",
                "wall clock / frame (us)",
                "frames / sec",
                "peak RSS (MB)",
                "speedup vs reference",
            ],
            rows,
        ),
    )


def _round_trips_per_txn(cell: dict) -> float:
    report = cell["report"]
    txns = report["cross_partition_txns"]
    return report["coordinator_round_trips"] / txns if txns else 0.0


def test_every_cell_completes(scaleout_results):
    for cell in scaleout_results.values():
        assert cell["frames"] == NUM_STREAMS * FRAMES_PER_STREAM


def test_parallel_sweep_matches_serial_execution(scaleout_results):
    """Acceptance: the process-pool grid is bit-identical to serial cells."""
    for num_edges, placement in ((1, "round-robin"), (4, "hotspot")):
        spec = get_scenario("cluster-uniform").with_(num_edges=num_edges, router=placement)
        serial = run(spec)
        assert scaleout_results[(num_edges, placement)]["report"] == serial.to_dict()


def test_batched_2pc_amortises_coordinator_round_trips(txn_policy_results):
    """Acceptance: batched 2PC reduces mean coordinator round trips per
    cross-edge transaction versus immediate 2PC."""
    immediate = _round_trips_per_txn(txn_policy_results["immediate-2pc"])
    batched = _round_trips_per_txn(txn_policy_results["batched-2pc"])
    assert immediate > 0.0
    assert batched < immediate
    assert txn_policy_results["batched-2pc"]["report"]["coordinator_batches"] > 0


def test_async_2pc_hides_prepare_latency(txn_policy_results):
    report = txn_policy_results["async-2pc"]["report"]
    assert report["overlap_saved_ms"] > 0.0
    assert (
        report["coordinator_round_trips"]
        == txn_policy_results["immediate-2pc"]["report"]["coordinator_round_trips"]
    )


def test_policies_agree_on_everything_but_the_coordinator(txn_policy_results):
    baseline = txn_policy_results["immediate-2pc"]
    for cell in txn_policy_results.values():
        assert cell["f_score"] == baseline["f_score"]
        assert cell["frames"] == baseline["frames"]
        assert cell["num_cross_partition_txns"] == baseline["num_cross_partition_txns"]


def test_every_cell_round_trips_through_the_schema(scaleout_results):
    """Acceptance: each cell's report parses back into an identical report."""
    for cell in scaleout_results.values():
        rebuilt = RunReport.from_dict(cell["report"])
        assert rebuilt.to_dict() == cell["report"]


def test_uniform_placement_scales_throughput(scaleout_results):
    series = [scaleout_results[(n, "round-robin")]["throughput_fps"] for n in EDGE_COUNTS]
    assert series[-1] > series[0]


def test_uniform_placement_drains_queueing_delay(scaleout_results):
    series = [scaleout_results[(n, "round-robin")]["mean_queue_delay_ms"] for n in EDGE_COUNTS]
    assert series[-1] < series[0]


def test_skewed_placement_stays_congested(scaleout_results):
    for num_edges in EDGE_COUNTS[1:]:
        uniform = scaleout_results[(num_edges, "round-robin")]
        skewed = scaleout_results[(num_edges, "hotspot")]
        assert skewed["mean_queue_delay_ms"] >= uniform["mean_queue_delay_ms"]


def test_multi_edge_runs_have_cross_partition_transactions(scaleout_results):
    for num_edges in EDGE_COUNTS[1:]:
        for placement in PLACEMENTS:
            assert scaleout_results[(num_edges, placement)]["cross_partition_fraction"] > 0.25


def test_adding_cloud_servers_drains_the_cloud_queue(cloud_contention_results):
    delays = [
        cloud_contention_results[servers]["mean_cloud_queue_delay_ms"]
        for servers in CLOUD_SERVER_COUNTS
    ]
    assert delays == sorted(delays, reverse=True)
    assert delays[0] > delays[-1] > 0.0
    assert cloud_contention_results[None]["mean_cloud_queue_delay_ms"] == 0.0


def test_failure_recovery_cells_complete_their_frames(failure_recovery_results):
    """Acceptance: a replica fails mid-run, streams migrate, the WAL is
    replayed on recovery, and every frame still completes."""
    for interval, cell in failure_recovery_results.items():
        report = cell["report"]
        assert cell["frames"] == NUM_STREAMS * 30, interval
        assert len(report["failure_events"]) == 1, interval
        event = report["failure_events"][0]
        assert event["streams_migrated"] > 0, interval
        assert cell["downtime_ms"] > 0.0, interval
        assert cell["recovery_time_ms"] > 0.0, interval


def test_checkpoints_bound_the_recovery_replay(failure_recovery_results):
    """Acceptance: recovering with no checkpoints replays the whole log,
    so it is slower than recovering from the most frequent checkpoints."""
    no_checkpoints = failure_recovery_results[None]
    frequent = failure_recovery_results[0.5]
    assert no_checkpoints["recovery_time_ms"] > frequent["recovery_time_ms"]
    assert (
        no_checkpoints["report"]["failure_events"][0]["records_replayed"]
        > frequent["report"]["failure_events"][0]["records_replayed"]
    )


def test_replication_cells_share_the_failure_schedule(replication_results):
    """The sweep's premise: every cell executed the same hazard draws."""
    schedules = {
        key: [
            (event["edge"], event["failed_at_s"])
            for event in cell["report"]["failure_events"]
        ]
        for key, cell in replication_results.items()
    }
    baseline = schedules[(1, "sync")]
    assert baseline, "the hazard base must draw at least one failure"
    for key, schedule in schedules.items():
        assert schedule == baseline, key


def test_replicated_failover_beats_replay_downtime(replication_results):
    """Acceptance: on the identical seed and failure schedule, promoting
    a synchronously-shipped backup restores service >=5x faster than the
    factor-1 restart + WAL-replay path."""
    replay = replication_results[(1, "sync")]["downtime_ms"]
    for factor in (2, 3):
        failover = replication_results[(factor, "sync")]["downtime_ms"]
        assert failover > 0.0
        assert replay >= REPLICATION_DOWNTIME_IMPROVEMENT_FLOOR * failover, factor


def test_replicated_downtime_is_promotion_bound(replication_results):
    """Acceptance: replicated downtime is the failover protocol itself —
    detection + election round trip + gap catch-up — not the scheduled
    outage.  Each promotion stays within a small constant factor of the
    detection floor, and far under the 1.5 s outage window."""
    for factor in (2, 3):
        cell = replication_results[(factor, "sync")]
        replication = cell["report"]["replication"]
        assert cell["promotions"] > 0, factor
        for event in replication["promotion_events"]:
            assert 5.0 <= event["downtime_ms"] <= 100.0, (factor, event)


def test_replication_modes_trade_latency_for_staleness(replication_results):
    """Acceptance: sync/quorum pay an acknowledgement wait per append
    while async pays none — and async's fire-and-forget flush delay shows
    up as strictly larger replication lag."""
    sync = replication_results[(2, "sync")]
    quorum = replication_results[(2, "quorum")]
    async_ = replication_results[(2, "async")]
    assert sync["report"]["replication"]["replication_ack_wait_ms"] > 0.0
    assert quorum["report"]["replication"]["replication_ack_wait_ms"] > 0.0
    assert async_["report"]["replication"]["replication_ack_wait_ms"] == 0.0
    assert async_["replication_lag_ms"] > sync["replication_lag_ms"]


def test_replication_ships_the_log(replication_results):
    """Log shipping scales with the backup count and factor 1 ships nothing."""
    assert replication_results[(1, "sync")]["log_records_shipped"] == 0.0
    shipped_2 = replication_results[(2, "sync")]["log_records_shipped"]
    shipped_3 = replication_results[(3, "sync")]["log_records_shipped"]
    assert shipped_2 > 0.0
    assert shipped_3 > shipped_2


def test_migrated_commit_cuts_wan_round_trips(geo_results):
    """Acceptance: on the same seeded cross-region workload, handing
    coordination to the region owning most participant partitions takes
    measurably fewer WAN round trips per cross-region transaction than
    coordinating every remote partition from the origin."""
    global_rts = geo_results[("global-2pc", "static")]["wan_round_trips_per_txn"]
    migrated_rts = geo_results[("migrated-2pc", "static")]["wan_round_trips_per_txn"]
    assert global_rts > 2.0
    assert migrated_rts < 0.95 * global_rts


def test_async_reconcile_trades_latency_for_apologies(geo_results):
    """Acceptance: asynchronous reconciliation commits without any
    synchronous WAN charge — its cross-region commit latency is below
    the global-2PC cell's — at the price of a nonzero apology rate from
    racing cross-region writes."""
    sync_cell = geo_results[("global-2pc", "static")]
    async_cell = geo_results[("async-reconcile", "static")]
    assert sync_cell["cross_region_p99_ms"] > 0.0
    assert async_cell["cross_region_p99_ms"] < sync_cell["cross_region_p99_ms"]
    assert async_cell["geo"]["reconcile_conflicts"] > 0
    assert async_cell["geo"]["apologies"] > 0


def test_geo_commit_variants_agree_on_the_workload(geo_results):
    """The commit variants only change cross-region messaging: every
    cell of the policy grid sees the same frames, detection quality, and
    cross-region transaction population."""
    baseline = geo_results[("global-2pc", "static")]
    for policy in ("migrated-2pc", "async-reconcile"):
        cell = geo_results[(policy, "static")]
        assert cell["frames"] == baseline["frames"]
        assert cell["f_score"] == baseline["f_score"]
        assert cell["geo"]["cross_region_txns"] == baseline["geo"]["cross_region_txns"]
        assert (
            cell["geo"]["cross_region_txn_fraction"]
            == baseline["geo"]["cross_region_txn_fraction"]
        )


def test_dominant_region_placement_re_homes_partitions(geo_results):
    """Acceptance: under deliberately uneven regional demand the
    dominant-region mover executes real partition moves and cuts the
    total WAN time against the static-placement cell."""
    static_cell = geo_results[("global-2pc", "uneven-static")]
    dominant_cell = geo_results[("global-2pc", "uneven-dominant-region")]
    assert static_cell["geo"]["placement_moves"] == 0
    assert dominant_cell["geo"]["placement_moves"] > 0
    assert dominant_cell["geo"]["wan_time_s"] < static_cell["geo"]["wan_time_s"]


def test_resharding_moves_execute(resharding_results):
    for moves, cell in resharding_results.items():
        assert cell["reshards"] == float(moves)
        assert cell["frames"] == NUM_STREAMS * 30


def test_open_loop_offers_at_least_twice_capacity(open_loop_results):
    """Acceptance: the sustained-overload scenario is a genuine >=2x
    overload of the measured single-run service capacity."""
    spec = get_scenario("sustained-overload")
    steady_offered = spec.offered_rate * spec.frames  # fps at 2 fps/stream
    capacity = open_loop_results["baseline-long"]["goodput_fps"]
    assert steady_offered >= 2.0 * capacity


def test_overload_control_sustains_goodput_near_capacity(open_loop_results):
    """Acceptance: under 2x overload, admission + shedding keep goodput
    within 15% of the measured capacity."""
    capacity = open_loop_results["baseline-long"]["goodput_fps"]
    assert open_loop_results["control-long"]["goodput_fps"] >= 0.85 * capacity


def test_overload_control_bounds_tail_latency(open_loop_results):
    """Acceptance: doubling the arrival horizon leaves the controlled
    p99 bounded while the uncontrolled baseline's p99 keeps growing."""
    assert (
        open_loop_results["control-long"]["p99_latency_ms"]
        <= 1.5 * open_loop_results["control"]["p99_latency_ms"]
    )
    assert (
        open_loop_results["baseline-long"]["p99_latency_ms"]
        >= 1.5 * open_loop_results["baseline"]["p99_latency_ms"]
    )


def test_open_loop_control_sheds_but_baseline_does_not(open_loop_results):
    assert open_loop_results["control-long"]["shed_rate"] > 0.0
    assert open_loop_results["baseline-long"]["shed_rate"] == 0.0


def test_adaptive_cells_share_the_workload(adaptive_results):
    """The adaptation axis only changes threshold decisions: every cell
    serves the identical frame population on the identical timeline span
    of arrivals."""
    baseline = adaptive_results["static"]
    for label, cell in adaptive_results.items():
        assert cell["frames"] == baseline["frames"], label
        assert cell["streams"] == baseline["streams"], label


def test_adaptive_controllers_actually_move_thresholds(adaptive_results):
    """Acceptance: both controller modes execute real mid-run threshold
    updates — and the static cell, by construction, records none."""
    assert adaptive_results["static"]["threshold_updates"] == 0.0
    for mode in ("feedback", "retune"):
        assert adaptive_results[mode]["threshold_updates"] > 0.0, mode
        assert (
            adaptive_results[mode]["bandwidth_utilization"]
            != adaptive_results["static"]["bandwidth_utilization"]
        ), mode


def test_retune_cuts_bandwidth_within_the_f_target(adaptive_results):
    """Acceptance: per-stream retuning spends less validation bandwidth
    than the static pair while holding the F-score target the
    controllers steer towards."""
    retune = adaptive_results["retune"]
    static = adaptive_results["static"]
    assert retune["bandwidth_utilization"] < static["bandwidth_utilization"]
    target = retune["report"]["scenario"]["adaptation_target_f"]
    assert retune["f_score"] >= target


def test_retune_tuner_meets_the_rescore_bound(adaptive_results):
    """Acceptance: the in-loop tuner's full-frame label matches stay
    >=10x below what the non-incremental evaluator would have paid for
    the same scored pairs.  The feedback mode never invokes the tuner."""
    retune = adaptive_results["retune"]
    assert retune["tuner_evaluations"] > 0.0
    assert retune["tuner_frame_rescores"] > 0.0
    assert retune["tuner_grid_rescores"] >= (
        TUNER_RESCORE_REDUCTION_FLOOR * retune["tuner_frame_rescores"]
    )
    feedback = adaptive_results["feedback"]
    assert feedback["tuner_evaluations"] == 0.0
    assert feedback["tuner_frame_rescores"] == 0.0


def test_scale_stress_smoke_cell_is_healthy(scale_stress_results):
    """The CI regression cell: the fast path completes the smoke-sized
    open-loop workload in bounded memory and the gated wall-clock metric
    is live.  The speedup over the reference engine is recorded (its
    acceptance floor is asserted at full scale, where the recorded
    path's per-frame accretion actually bites)."""
    smoke = scale_stress_results["smoke"]
    assert smoke["frames"] >= 4000
    assert smoke["wall_clock_per_frame_us"] > 0.0
    assert smoke["peak_rss_mb"] < 256.0
    assert smoke["speedup_vs_reference"] > 0.0


def test_scale_stress_smoke_pair_runs_the_same_simulation(scale_stress_results):
    """Fast and reference cells must process the identical workload —
    the wall-clock ratio is meaningless otherwise."""
    smoke = scale_stress_results["smoke"]
    reference = scale_stress_results["smoke-reference"]
    assert smoke["frames"] == reference["frames"]
    assert smoke["report"]["streams"] == reference["report"]["streams"]
    assert smoke["report"]["f_score"] == reference["report"]["f_score"]


def test_scale_stress_profile_artifact_written(scale_stress_results):
    assert SCALE_STRESS_PROFILE_PATH.exists()
    assert SCALE_STRESS_PROFILE_PATH.stat().st_size > 0


@pytest.mark.slow
def test_scale_stress_full_million_frames(scale_stress_results, report_writer):
    """Acceptance: ~1e5 open-loop streams (>=1e6 frames) over 100 edges
    complete without recording within a bounded memory envelope, at >=3.5x
    the frames/sec of the pre-optimization engine on the same scenario.

    Both cells land in the artifact (and the report table) so the full-
    scale trajectory is recorded whenever the slow suite runs.
    """
    full = _scale_stress_cell("scale-stress")
    reference = _scale_stress_cell(
        "scale-stress", overrides={"record_frames": True, "reference_engine": True}
    )
    full["speedup_vs_reference"] = (
        reference["wall_clock_per_frame_us"] / full["wall_clock_per_frame_us"]
    )
    scale_stress_results["full"] = full
    scale_stress_results["full-reference"] = reference
    _write_scale_stress_table(report_writer, scale_stress_results)

    assert full["frames"] >= 1_000_000
    assert full["frames"] == reference["frames"]
    assert full["peak_rss_mb"] < 2048.0
    assert full["speedup_vs_reference"] >= SCALE_STRESS_SPEEDUP_FLOOR


def test_migration_events_match_summary_counts(migration_results):
    for cell in migration_results.values():
        assert cell["timeline_migrations"] == cell["migrations"]


def test_migration_reduces_max_edge_utilization(migration_results):
    """Acceptance: the migrating router beats least-loaded on the hotspot workload."""
    assert migration_results["migrating"]["migrations"] > 0
    assert migration_results["least-loaded"]["migrations"] == 0
    assert (
        migration_results["migrating"]["max_utilization"]
        < migration_results["least-loaded"]["max_utilization"]
    )


def test_emit_bench_cluster_artifact(
    scaleout_results,
    cloud_contention_results,
    migration_results,
    txn_policy_results,
    failure_recovery_results,
    replication_results,
    resharding_results,
    geo_results,
    adaptive_results,
    open_loop_results,
    scale_stress_results,
):
    """Write every sweep cell to ``results/BENCH_cluster.json``.

    The artifact is the machine-readable perf trajectory CI uploads per
    commit.  Every cell keeps the legacy summary keys *and* embeds the
    full ``RunReport`` (including the originating ``ScenarioSpec``), so
    any recorded cell can be replayed bit-for-bit via
    ``run(ScenarioSpec.from_dict(cell["report"]["scenario"]))``.
    """
    payload = {
        "artifact_schema": ARTIFACT_SCHEMA,
        "seed": BENCH_SEED,
        "streams": NUM_STREAMS,
        "frames_per_stream": FRAMES_PER_STREAM,
        "scaleout": [
            {"edges": edges, "placement": placement, **cell}
            for (edges, placement), cell in scaleout_results.items()
        ],
        "cloud_contention": [
            {"cloud_servers": servers, **cell}
            for servers, cell in cloud_contention_results.items()
        ],
        "migration": [
            {"placement": policy, **cell} for policy, cell in migration_results.items()
        ],
        "txn_policies": [
            {"transaction_policy": policy, **cell}
            for policy, cell in txn_policy_results.items()
        ],
        "failure_recovery": [
            {"checkpoint_interval_s": interval, **cell}
            for interval, cell in failure_recovery_results.items()
        ],
        "replication": [
            {"replication_factor": factor, "replication_mode": mode, **cell}
            for (factor, mode), cell in sorted(replication_results.items())
        ],
        "resharding": [
            {"moves": moves, **cell} for moves, cell in resharding_results.items()
        ],
        "geo": [
            {"cross_region_policy": policy, "placement": placement, **cell}
            for (policy, placement), cell in geo_results.items()
        ],
        "adaptive": [
            {"label": label, **cell} for label, cell in adaptive_results.items()
        ],
        "open_loop": [
            {"label": label, **cell} for label, cell in open_loop_results.items()
        ],
        "scale_stress": [
            {"label": label, **cell} for label, cell in scale_stress_results.items()
        ],
    }
    ARTIFACT_PATH.parent.mkdir(exist_ok=True)
    ARTIFACT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    recorded = json.loads(ARTIFACT_PATH.read_text())
    assert recorded["artifact_schema"] == ARTIFACT_SCHEMA
    assert recorded["scaleout"]
    assert recorded["failure_recovery"]
    assert recorded["replication"]
    assert recorded["resharding"]
    assert recorded["geo"]
    assert recorded["adaptive"]
    assert recorded["open_loop"]
    assert recorded["scale_stress"]
    for section in (
        "scaleout",
        "failure_recovery",
        "replication",
        "resharding",
        "geo",
        "adaptive",
        "open_loop",
        "scale_stress",
    ):
        for cell in recorded[section]:
            validate_report(cell["report"])


def test_benchmark_two_edge_cluster_run(benchmark, scaleout_results):
    """Time one full 2-edge, 8-stream cluster run."""

    def run_cluster():
        return _run_cell(2, "round-robin", BENCH_SEED + 1)

    cell = benchmark(run_cluster)
    assert cell["frames"] == NUM_STREAMS * FRAMES_PER_STREAM
