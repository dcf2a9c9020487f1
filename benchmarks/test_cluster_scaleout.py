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

Every grid is a registered :class:`repro.experiments.Sweep` and every
cell a :class:`repro.experiments.RunReport`; the assertions below read
report attributes and the tables under ``results/`` render them.  What
the cells' numbers are is gated elsewhere: ``tests/test_scenario_digests.py``
pins every cell of every registered cluster sweep by its report digest,
and ``bench/`` measures host time.  This file holds the shapes.

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

import pytest

from repro.analysis.tables import format_table
from repro.experiments import RunReport, get_scenario, get_sweep, run, validate_report

from bench_common import BENCH_SEED  # noqa: E402  (benchmarks path setup)

EDGE_COUNTS = (1, 2, 4, 8)
PLACEMENTS = ("round-robin", "hotspot")
NUM_STREAMS = 8
FRAMES_PER_STREAM = 10
CLOUD_SERVER_COUNTS = (1, 2, 4)


def _run_cell(num_edges: int, placement: str, seed: int) -> RunReport:
    """One standalone sweep cell (used by the timing benchmark)."""
    spec = get_scenario("cluster-uniform").with_(
        num_edges=num_edges, router=placement, seed=seed
    )
    report = run(spec)
    assert report.frames == NUM_STREAMS * FRAMES_PER_STREAM
    return report


@pytest.fixture(scope="module")
def scaleout_results(report_writer):
    sweep = get_sweep("cluster-scaleout")
    assert sweep.base.seed == BENCH_SEED, "registered sweep must share the bench seed"
    # Sweep cells are independent seeded runs: fan the 8-cell grid over a
    # process pool (identity to serial execution is pinned below).
    results = {
        (cell.assignment["num_edges"], cell.assignment["router"]): cell.report
        for cell in sweep.run(max_workers=2)
    }
    rows = [
        [
            num_edges,
            placement,
            f"{report.throughput_fps:.2f}",
            f"{report.queue_delay_ms:.0f}",
            f"{report.max_utilization:.0%}",
            f"{report.cross_partition_fraction:.0%}",
            f"{report.abort_rate:.1%}",
        ]
        for (num_edges, placement), report in results.items()
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
        cell.assignment["cloud_servers"]: cell.report
        for cell in get_sweep("cloud-contention").run()
    }
    rows = [
        [
            "unbounded" if servers is None else servers,
            f"{report.cloud_queue_delay_ms:.0f}",
            f"{report.queue_delay_ms:.0f}",
            f"{report.throughput_fps:.2f}",
        ]
        for servers, report in results.items()
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
    results = {
        cell.assignment["router"]: cell.report
        for cell in get_sweep("migration-policies").run()
    }
    rows = [
        [
            policy,
            f"{report.max_utilization:.0%}",
            f"{report.queue_delay_ms:.0f}",
            f"{report.makespan_s:.2f}",
            report.migrations,
        ]
        for policy, report in results.items()
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
        cell.assignment["transaction_policy"]: cell.report
        for cell in get_sweep("txn-policies").run(max_workers=2)
    }
    rows = [
        [
            policy,
            report.coordinator_round_trips,
            f"{report.round_trips_per_cross_partition_txn:.2f}",
            report.coordinator_batches,
            f"{report.overlap_saved_ms:.1f}",
            f"{report.latency['commit_protocol_ms']:.2f}",
            f"{report.latency['final_ms']:.0f}",
        ]
        for policy, report in results.items()
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
    results = {
        cell.assignment["checkpoint_interval_s"]: cell.report
        for cell in get_sweep("failure-recovery").run(max_workers=2)
    }
    rows = [
        [
            "none" if interval is None else f"{interval:.1f}",
            f"{report.recovery_time_ms:.1f}",
            f"{report.downtime_ms:.0f}",
            report.frames_replayed,
            report.txns_aborted_by_failure,
            f"{report.throughput_fps:.2f}",
        ]
        for interval, report in results.items()
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
    ``(replication_factor, replication_mode)``.
    """
    results = {}
    for cell in get_sweep("replication-availability").run(max_workers=2):
        results[(cell.assignment["replication_factor"], "sync")] = cell.report
    for cell in get_sweep("replication-modes").run(max_workers=2):
        results.setdefault((2, cell.assignment["replication_mode"]), cell.report)
    rows = [
        [
            factor,
            mode,
            report.promotions,
            f"{report.downtime_ms:.1f}",
            f"{report.replication_lag_ms:.2f}",
            report.log_records_shipped,
            f"{report.throughput_fps:.2f}",
        ]
        for (factor, mode), report in sorted(results.items())
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


@pytest.fixture(scope="module")
def geo_results(report_writer):
    """Geo-hierarchical cells: cross-region commit variants and placement.

    The commit-variant grid runs the 2-region ``geo-baseline`` cell under
    each cross-region policy; the placement pair runs the 4-region
    uneven-demand grid (its cells are keyed ``uneven-static`` /
    ``uneven-dominant-region`` so they never collide with the 2-region
    static cells).
    """
    results = {}
    for cell in get_sweep("geo-commit-policies").run(max_workers=2):
        results[(cell.assignment["cross_region_policy"], "static")] = cell.report
    for cell in get_sweep("geo-placement").run(max_workers=2):
        results[("global-2pc", f"uneven-{cell.assignment['placement']}")] = cell.report
    rows = [
        [
            policy,
            placement,
            f"{report.geo['cross_region_txn_fraction']:.0%}",
            f"{report.wan_round_trips_per_txn:.2f}",
            f"{report.geo['cross_region_p99_ms']:.0f}",
            f"{report.geo['wan_time_s']:.1f}",
            int(report.geo["apologies"]),
            int(report.geo["placement_moves"]),
        ]
        for (policy, placement), report in results.items()
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


@pytest.fixture(scope="module")
def resharding_results(report_writer):
    """0, 1, and 2 scheduled runtime partition moves."""
    results = {
        len(cell.assignment["resharding"]): cell.report
        for cell in get_sweep("resharding").run()
    }
    rows = [
        [
            moves,
            len(report.reshard_events),
            f"{report.throughput_fps:.2f}",
            f"{report.cross_partition_fraction:.0%}",
        ]
        for moves, report in results.items()
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


def _tuner_grid_rescores(report: RunReport) -> int:
    """What the plain evaluator would have paid (0 without adaptation)."""
    return report.adaptation["tuner_grid_rescores"] if report.adaptation else 0


@pytest.fixture(scope="module")
def adaptive_results(report_writer):
    """Static thresholds vs the runtime controllers on the paced cell.

    The ``static-vs-adaptive`` sweep runs the adaptation base scenario
    under no adaptation, the feedback controller, and per-stream
    coordinate-descent retuning.
    """
    results = {
        cell.assignment["threshold_adaptation"] or "static": cell.report
        for cell in get_sweep("static-vs-adaptive").run(max_workers=2)
    }
    rows = [
        [
            label,
            f"{report.f_score:.4f}",
            f"{report.bandwidth_utilization:.1%}",
            report.threshold_updates,
            report.tuner_evaluations,
            report.tuner_frame_rescores,
            _tuner_grid_rescores(report),
        ]
        for label, report in results.items()
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
    results = {label: run(spec) for label, spec in specs.items()}
    rows = [
        [
            label,
            f"{report.offered_load_fps:.2f}",
            f"{report.admitted_load_fps:.2f}",
            f"{report.goodput_fps:.2f}",
            f"{report.shed_rate:.1%}",
            f"{report.p99_latency_ms:.0f}",
        ]
        for label, report in results.items()
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


def test_every_cell_completes(scaleout_results):
    for report in scaleout_results.values():
        assert report.frames == NUM_STREAMS * FRAMES_PER_STREAM


def test_parallel_sweep_matches_serial_execution(scaleout_results):
    """Acceptance: the process-pool grid is bit-identical to serial cells."""
    for num_edges, placement in ((1, "round-robin"), (4, "hotspot")):
        spec = get_scenario("cluster-uniform").with_(num_edges=num_edges, router=placement)
        serial = run(spec)
        assert scaleout_results[(num_edges, placement)].to_dict() == serial.to_dict()


def test_batched_2pc_amortises_coordinator_round_trips(txn_policy_results):
    """Acceptance: batched 2PC reduces mean coordinator round trips per
    cross-edge transaction versus immediate 2PC."""
    immediate = txn_policy_results["immediate-2pc"].round_trips_per_cross_partition_txn
    batched = txn_policy_results["batched-2pc"].round_trips_per_cross_partition_txn
    assert immediate > 0.0
    assert batched < immediate
    assert txn_policy_results["batched-2pc"].coordinator_batches > 0


def test_async_2pc_hides_prepare_latency(txn_policy_results):
    report = txn_policy_results["async-2pc"]
    assert report.overlap_saved_ms > 0.0
    assert (
        report.coordinator_round_trips
        == txn_policy_results["immediate-2pc"].coordinator_round_trips
    )


def test_policies_agree_on_everything_but_the_coordinator(txn_policy_results):
    baseline = txn_policy_results["immediate-2pc"]
    for report in txn_policy_results.values():
        assert report.f_score == baseline.f_score
        assert report.frames == baseline.frames
        assert report.cross_partition_txns == baseline.cross_partition_txns


def test_every_cell_round_trips_through_the_schema(
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
):
    """Acceptance: every section's reports validate and parse back into
    identical reports."""
    for section in (
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
    ):
        for report in section.values():
            payload = validate_report(report.to_dict())
            assert RunReport.from_dict(payload).to_dict() == payload


def test_uniform_placement_scales_throughput(scaleout_results):
    series = [scaleout_results[(n, "round-robin")].throughput_fps for n in EDGE_COUNTS]
    assert series[-1] > series[0]


def test_uniform_placement_drains_queueing_delay(scaleout_results):
    series = [scaleout_results[(n, "round-robin")].queue_delay_ms for n in EDGE_COUNTS]
    assert series[-1] < series[0]


def test_skewed_placement_stays_congested(scaleout_results):
    for num_edges in EDGE_COUNTS[1:]:
        uniform = scaleout_results[(num_edges, "round-robin")]
        skewed = scaleout_results[(num_edges, "hotspot")]
        assert skewed.queue_delay_ms >= uniform.queue_delay_ms


def test_multi_edge_runs_have_cross_partition_transactions(scaleout_results):
    for num_edges in EDGE_COUNTS[1:]:
        for placement in PLACEMENTS:
            assert scaleout_results[(num_edges, placement)].cross_partition_fraction > 0.25


def test_adding_cloud_servers_drains_the_cloud_queue(cloud_contention_results):
    delays = [
        cloud_contention_results[servers].cloud_queue_delay_ms
        for servers in CLOUD_SERVER_COUNTS
    ]
    assert delays == sorted(delays, reverse=True)
    assert delays[0] > delays[-1] > 0.0
    assert cloud_contention_results[None].cloud_queue_delay_ms == 0.0


def test_failure_recovery_cells_complete_their_frames(failure_recovery_results):
    """Acceptance: a replica fails mid-run, streams migrate, the WAL is
    replayed on recovery, and every frame still completes."""
    for interval, report in failure_recovery_results.items():
        assert report.frames == NUM_STREAMS * 30, interval
        assert len(report.failure_events) == 1, interval
        event = report.failure_events[0]
        assert event["streams_migrated"] > 0, interval
        assert report.downtime_ms > 0.0, interval
        assert report.recovery_time_ms > 0.0, interval


def test_checkpoints_bound_the_recovery_replay(failure_recovery_results):
    """Acceptance: recovering with no checkpoints replays the whole log,
    so it is slower than recovering from the most frequent checkpoints."""
    no_checkpoints = failure_recovery_results[None]
    frequent = failure_recovery_results[0.5]
    assert no_checkpoints.recovery_time_ms > frequent.recovery_time_ms
    assert (
        no_checkpoints.failure_events[0]["records_replayed"]
        > frequent.failure_events[0]["records_replayed"]
    )


def test_replication_cells_share_the_failure_schedule(replication_results):
    """The sweep's premise: every cell executed the same hazard draws."""
    schedules = {
        key: [(event["edge"], event["failed_at_s"]) for event in report.failure_events]
        for key, report in replication_results.items()
    }
    baseline = schedules[(1, "sync")]
    assert baseline, "the hazard base must draw at least one failure"
    for key, schedule in schedules.items():
        assert schedule == baseline, key


def test_replicated_failover_beats_replay_downtime(replication_results):
    """Acceptance: on the identical seed and failure schedule, promoting
    a synchronously-shipped backup restores service >=5x faster than the
    factor-1 restart + WAL-replay path."""
    replay = replication_results[(1, "sync")].downtime_ms
    for factor in (2, 3):
        failover = replication_results[(factor, "sync")].downtime_ms
        assert failover > 0.0
        assert replay >= REPLICATION_DOWNTIME_IMPROVEMENT_FLOOR * failover, factor


def test_replicated_downtime_is_promotion_bound(replication_results):
    """Acceptance: replicated downtime is the failover protocol itself —
    detection + election round trip + gap catch-up — not the scheduled
    outage.  Each promotion stays within a small constant factor of the
    detection floor, and far under the 1.5 s outage window."""
    for factor in (2, 3):
        report = replication_results[(factor, "sync")]
        assert report.promotions > 0, factor
        for event in report.replication["promotion_events"]:
            assert 5.0 <= event["downtime_ms"] <= 100.0, (factor, event)


def test_replication_modes_trade_latency_for_staleness(replication_results):
    """Acceptance: sync/quorum pay an acknowledgement wait per append
    while async pays none — and async's fire-and-forget flush delay shows
    up as strictly larger replication lag."""
    sync = replication_results[(2, "sync")]
    quorum = replication_results[(2, "quorum")]
    async_ = replication_results[(2, "async")]
    assert sync.replication["replication_ack_wait_ms"] > 0.0
    assert quorum.replication["replication_ack_wait_ms"] > 0.0
    assert async_.replication["replication_ack_wait_ms"] == 0.0
    assert async_.replication_lag_ms > sync.replication_lag_ms


def test_replication_ships_the_log(replication_results):
    """Log shipping scales with the backup count and factor 1 ships nothing."""
    assert replication_results[(1, "sync")].log_records_shipped == 0
    shipped_2 = replication_results[(2, "sync")].log_records_shipped
    shipped_3 = replication_results[(3, "sync")].log_records_shipped
    assert shipped_2 > 0
    assert shipped_3 > shipped_2


def test_migrated_commit_cuts_wan_round_trips(geo_results):
    """Acceptance: on the same seeded cross-region workload, handing
    coordination to the region owning most participant partitions takes
    measurably fewer WAN round trips per cross-region transaction than
    coordinating every remote partition from the origin."""
    global_rts = geo_results[("global-2pc", "static")].wan_round_trips_per_txn
    migrated_rts = geo_results[("migrated-2pc", "static")].wan_round_trips_per_txn
    assert global_rts > 2.0
    assert migrated_rts < 0.95 * global_rts


def test_async_reconcile_trades_latency_for_apologies(geo_results):
    """Acceptance: asynchronous reconciliation commits without any
    synchronous WAN charge — its cross-region commit latency is below
    the global-2PC cell's — at the price of a nonzero apology rate from
    racing cross-region writes."""
    sync_geo = geo_results[("global-2pc", "static")].geo
    async_geo = geo_results[("async-reconcile", "static")].geo
    assert sync_geo["cross_region_p99_ms"] > 0.0
    assert async_geo["cross_region_p99_ms"] < sync_geo["cross_region_p99_ms"]
    assert async_geo["reconcile_conflicts"] > 0
    assert async_geo["apologies"] > 0


def test_geo_commit_variants_agree_on_the_workload(geo_results):
    """The commit variants only change cross-region messaging: every
    cell of the policy grid sees the same frames, detection quality, and
    cross-region transaction population."""
    baseline = geo_results[("global-2pc", "static")]
    for policy in ("migrated-2pc", "async-reconcile"):
        report = geo_results[(policy, "static")]
        assert report.frames == baseline.frames
        assert report.f_score == baseline.f_score
        assert report.geo["cross_region_txns"] == baseline.geo["cross_region_txns"]
        assert (
            report.geo["cross_region_txn_fraction"]
            == baseline.geo["cross_region_txn_fraction"]
        )


def test_dominant_region_placement_re_homes_partitions(geo_results):
    """Acceptance: under deliberately uneven regional demand the
    dominant-region mover executes real partition moves and cuts the
    total WAN time against the static-placement cell."""
    static_geo = geo_results[("global-2pc", "uneven-static")].geo
    dominant_geo = geo_results[("global-2pc", "uneven-dominant-region")].geo
    assert static_geo["placement_moves"] == 0
    assert dominant_geo["placement_moves"] > 0
    assert dominant_geo["wan_time_s"] < static_geo["wan_time_s"]


def test_resharding_moves_execute(resharding_results):
    for moves, report in resharding_results.items():
        assert len(report.reshard_events) == moves
        assert report.frames == NUM_STREAMS * 30


def test_open_loop_offers_at_least_twice_capacity(open_loop_results):
    """Acceptance: the sustained-overload scenario is a genuine >=2x
    overload of the measured single-run service capacity."""
    spec = get_scenario("sustained-overload")
    steady_offered = spec.offered_rate * spec.frames  # fps at 2 fps/stream
    capacity = open_loop_results["baseline-long"].goodput_fps
    assert steady_offered >= 2.0 * capacity


def test_overload_control_sustains_goodput_near_capacity(open_loop_results):
    """Acceptance: under 2x overload, admission + shedding keep goodput
    within 15% of the measured capacity."""
    capacity = open_loop_results["baseline-long"].goodput_fps
    assert open_loop_results["control-long"].goodput_fps >= 0.85 * capacity


def test_overload_control_bounds_tail_latency(open_loop_results):
    """Acceptance: doubling the arrival horizon leaves the controlled
    p99 bounded while the uncontrolled baseline's p99 keeps growing."""
    assert (
        open_loop_results["control-long"].p99_latency_ms
        <= 1.5 * open_loop_results["control"].p99_latency_ms
    )
    assert (
        open_loop_results["baseline-long"].p99_latency_ms
        >= 1.5 * open_loop_results["baseline"].p99_latency_ms
    )


def test_open_loop_control_sheds_but_baseline_does_not(open_loop_results):
    assert open_loop_results["control-long"].shed_rate > 0.0
    assert open_loop_results["baseline-long"].shed_rate == 0.0


def test_adaptive_cells_share_the_workload(adaptive_results):
    """The adaptation axis only changes threshold decisions: every cell
    serves the identical frame population on the identical timeline span
    of arrivals."""
    baseline = adaptive_results["static"]
    for label, report in adaptive_results.items():
        assert report.frames == baseline.frames, label
        assert report.streams == baseline.streams, label


def test_adaptive_controllers_actually_move_thresholds(adaptive_results):
    """Acceptance: both controller modes execute real mid-run threshold
    updates — and the static cell, by construction, records none."""
    assert adaptive_results["static"].threshold_updates == 0
    for mode in ("feedback", "retune"):
        assert adaptive_results[mode].threshold_updates > 0, mode
        assert (
            adaptive_results[mode].bandwidth_utilization
            != adaptive_results["static"].bandwidth_utilization
        ), mode


def test_retune_cuts_bandwidth_within_the_f_target(adaptive_results):
    """Acceptance: per-stream retuning spends less validation bandwidth
    than the static pair while holding the F-score target the
    controllers steer towards."""
    retune = adaptive_results["retune"]
    static = adaptive_results["static"]
    assert retune.bandwidth_utilization < static.bandwidth_utilization
    assert retune.f_score >= retune.scenario["adaptation_target_f"]


def test_retune_tuner_meets_the_rescore_bound(adaptive_results):
    """Acceptance: the in-loop tuner's full-frame label matches stay
    >=10x below what the non-incremental evaluator would have paid for
    the same scored pairs.  The feedback mode never invokes the tuner."""
    retune = adaptive_results["retune"]
    assert retune.tuner_evaluations > 0
    assert retune.tuner_frame_rescores > 0
    assert _tuner_grid_rescores(retune) >= (
        TUNER_RESCORE_REDUCTION_FLOOR * retune.tuner_frame_rescores
    )
    feedback = adaptive_results["feedback"]
    assert feedback.tuner_evaluations == 0
    assert feedback.tuner_frame_rescores == 0


def test_migration_events_match_summary_counts(migration_results):
    for report in migration_results.values():
        assert len(report.migration_events) == report.migrations


def test_migration_reduces_max_edge_utilization(migration_results):
    """Acceptance: the migrating router beats least-loaded on the hotspot workload."""
    assert migration_results["migrating"].migrations > 0
    assert migration_results["least-loaded"].migrations == 0
    assert (
        migration_results["migrating"].max_utilization
        < migration_results["least-loaded"].max_utilization
    )


def test_benchmark_two_edge_cluster_run(benchmark, scaleout_results):
    """Time one full 2-edge, 8-stream cluster run."""

    def run_cluster():
        return _run_cell(2, "round-robin", BENCH_SEED + 1)

    report = benchmark(run_cluster)
    assert report.frames == NUM_STREAMS * FRAMES_PER_STREAM
