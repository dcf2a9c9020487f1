"""Tests for the open-loop traffic subsystem.

Covers the arrival-process generators (shape, seeding, the golden pin,
and a hypothesis property on the empirical rate), admission control and
apology-budgeted shedding, the open-loop entry point (many edges and one),
the hazard-mode failure injector, failback migration, and the
sustained-overload acceptance criteria.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failure import FailureInjector
from repro.cluster import ClusterConfig, ClusterSystem
from repro.core.config import CroesusConfig
from repro.core.pipeline import TraceSink
from repro.experiments import ScenarioSpec, build_traffic_config, run, validate_report
from repro.sim.rng import RngRegistry
from repro.traffic import (
    ApologyBudget,
    ArrivalProcess,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    LoadShedder,
    QueueThresholdAdmission,
    TokenBucketAdmission,
    TraceRate,
    TrafficConfig,
    TrafficSource,
    make_admission,
    make_rate_curve,
    percentile,
    sample_stream_length,
)
from repro.video.library import make_camera_streams

from helpers import empirical_mean_interarrival


# -- rate curves --------------------------------------------------------------
class TestRateCurves:
    def test_constant_rate_is_flat(self):
        curve = ConstantRate(2.5)
        assert curve.rate(0.0) == curve.rate(100.0) == 2.5
        assert curve.peak == 2.5

    def test_diurnal_swings_between_base_and_peak(self):
        curve = DiurnalRate(base=1.0, peak_rate=3.0, period_s=10.0)
        assert curve.rate(0.0) == pytest.approx(1.0)
        assert curve.rate(5.0) == pytest.approx(3.0)  # half period = peak
        assert curve.rate(10.0) == pytest.approx(1.0)
        assert curve.peak == pytest.approx(3.0)

    def test_diurnal_time_average_is_midpoint(self):
        curve = DiurnalRate(base=1.0, peak_rate=3.0, period_s=8.0)
        times = np.linspace(0.0, 8.0, 10_001)
        average = float(np.mean([curve.rate(t) for t in times]))
        assert average == pytest.approx(2.0, rel=1e-3)

    def test_flash_crowd_ramps_holds_and_returns(self):
        curve = FlashCrowdRate(
            base=1.0, peak_rate=5.0, spike_at=10.0, ramp_s=2.0, hold_s=4.0
        )
        assert curve.rate(0.0) == pytest.approx(1.0)
        assert curve.rate(11.0) == pytest.approx(3.0)  # mid-ramp
        assert curve.rate(13.0) == pytest.approx(5.0)  # holding
        assert curve.rate(17.0) == pytest.approx(3.0)  # ramping down
        assert curve.rate(30.0) == pytest.approx(1.0)

    def test_trace_interpolates_and_is_flat_outside(self):
        curve = TraceRate(points=((0.0, 1.0), (10.0, 3.0)))
        assert curve.rate(-5.0) == pytest.approx(1.0)
        assert curve.rate(5.0) == pytest.approx(2.0)
        assert curve.rate(50.0) == pytest.approx(3.0)
        assert curve.peak == pytest.approx(3.0)

    @pytest.mark.parametrize("process", ["poisson", "diurnal", "flash-crowd", "trace"])
    def test_make_rate_curve_time_average_matches_offered(self, process):
        offered, duration = 1.5, 20.0
        curve = make_rate_curve(process, offered, peak_factor=4.0, duration_s=duration)
        times = np.linspace(0.0, duration, 20_001)
        average = float(np.trapezoid([curve.rate(t) for t in times], times)) / duration
        assert average == pytest.approx(offered, rel=0.05)
        assert curve.peak >= offered - 1e-9

    def test_make_rate_curve_rejects_unknown_process(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_rate_curve("bursty", 1.0, peak_factor=4.0, duration_s=8.0)


# -- arrival process ----------------------------------------------------------
class TestArrivalProcess:
    def test_arrivals_are_increasing_and_inside_horizon(self):
        process = ArrivalProcess(ConstantRate(3.0), RngRegistry(3).stream("traffic-arrivals"))
        times = list(process.arrivals(10.0))
        assert times == sorted(times)
        assert all(0.0 <= t < 10.0 for t in times)

    def test_seeded_golden_pin(self):
        """Exact arrival instants of seed 7 — the determinism contract."""
        process = ArrivalProcess(ConstantRate(1.0), RngRegistry(7).stream("traffic-arrivals"))
        times = [round(t, 6) for t in process.arrivals(8.0)]
        assert times == [0.584025, 1.06924, 1.376519, 1.822167, 5.677983, 6.778874]

    def test_same_seed_same_arrivals(self):
        def draw():
            process = ArrivalProcess(
                DiurnalRate(base=0.5, peak_rate=2.0, period_s=8.0),
                RngRegistry(13).stream("traffic-arrivals"),
            )
            return list(process.arrivals(16.0))

        assert draw() == draw()

    @settings(max_examples=15, deadline=None)
    @given(
        rate=st.floats(min_value=0.5, max_value=4.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_empirical_mean_interarrival_matches_rate(self, rate, seed):
        """Mean interarrival of ~2000 Poisson samples is 1/rate ± 15%."""
        horizon = 2000.0 / rate
        process = ArrivalProcess(ConstantRate(rate), RngRegistry(seed).stream("a"))
        times = list(process.arrivals(horizon))
        assert len(times) > 1000
        assert empirical_mean_interarrival(times) == pytest.approx(1.0 / rate, rel=0.15)


class TestStreamLengths:
    def test_fixed_is_the_mean(self):
        rng = np.random.default_rng(0)
        assert sample_stream_length("fixed", 10, rng) == 10

    def test_geometric_is_positive_with_matching_mean(self):
        rng = np.random.default_rng(1)
        samples = [sample_stream_length("geometric", 8, rng) for _ in range(4000)]
        assert min(samples) >= 1
        assert float(np.mean(samples)) == pytest.approx(8.0, rel=0.1)

    def test_uniform_stays_in_bounds(self):
        rng = np.random.default_rng(2)
        samples = [sample_stream_length("uniform", 6, rng) for _ in range(500)]
        assert all(1 <= s <= 11 for s in samples)

    def test_unknown_distribution_raises(self):
        with pytest.raises(ValueError, match="unknown stream_length"):
            sample_stream_length("zipf", 10, np.random.default_rng(0))


# -- admission ----------------------------------------------------------------
class TestAdmission:
    def test_none_admits_everything(self):
        controller = make_admission("none")
        assert all(controller.admit(t, float("inf")) for t in range(10))

    def test_token_bucket_burst_then_throttle(self):
        bucket = TokenBucketAdmission(rate=1.0, burst=2.0)
        assert bucket.admit(0.0, 0.0)
        assert bucket.admit(0.0, 0.0)
        assert not bucket.admit(0.0, 0.0)  # burst exhausted
        assert bucket.admit(1.0, 0.0)  # one token accrued
        assert not bucket.admit(1.0, 0.0)

    def test_queue_threshold_bounds_backlog(self):
        controller = QueueThresholdAdmission(max_backlog_s=0.5)
        assert controller.admit(0.0, 0.4)
        assert controller.admit(0.0, 0.5)
        assert not controller.admit(0.0, 0.6)
        assert not controller.admit(0.0, float("inf"))

    def test_factory_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown admission"):
            make_admission("random-drop")


# -- shedding -----------------------------------------------------------------
class TestShedding:
    def test_budget_accrues_and_caps_at_burst(self):
        budget = ApologyBudget(per_second=2.0, burst=3.0)
        assert budget.balance(0.0) == pytest.approx(3.0)
        assert budget.balance(100.0) == pytest.approx(3.0)  # capped
        assert budget.spend(0.0)
        assert budget.spend(0.0)
        assert budget.spend(0.0)
        assert not budget.spend(0.0)  # empty
        assert budget.spend(0.5)  # 2/s refill
        assert budget.spent == 4

    def test_shedder_needs_both_load_and_budget(self):
        shedder = LoadShedder(threshold=0.8, budget=ApologyBudget(per_second=1.0, burst=1.0))
        assert not shedder.should_shed(0.0, load=0.5)  # below threshold
        assert shedder.should_shed(0.0, load=0.9)
        assert not shedder.should_shed(0.0, load=0.9)  # budget empty
        assert shedder.shed_frames == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            LoadShedder(threshold=0.0, budget=ApologyBudget(per_second=1.0))


# -- traffic source -----------------------------------------------------------
class TestTrafficSource:
    def test_seeded_golden_pin(self):
        """Streams of seed 7: arrival instants, names, sampled lengths."""
        source = TrafficSource(
            TrafficConfig(
                offered_rate=1.0, duration_s=8.0, mean_frames=4, stream_length="geometric"
            ),
            RngRegistry(7),
        )
        out = [(round(t, 6), v.name, v.num_frames) for t, v in source.streams()]
        assert out == [
            (0.584025, "open0-v1", 3),
            (1.06924, "open1-v2", 6),
            (1.376519, "open2-v3", 2),
            (1.822167, "open3-v4", 6),
            (5.677983, "open4-v5", 6),
            (6.778874, "open5-v1", 1),
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="offered_rate"):
            TrafficConfig(offered_rate=0.0)
        with pytest.raises(ValueError, match="duration"):
            TrafficConfig(duration_s=-1.0)
        with pytest.raises(ValueError, match="apology_budget"):
            TrafficConfig(apology_budget=0.0)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile([7.0], 99) == 7.0
        assert percentile([], 50) == 0.0


# -- open-loop runs -----------------------------------------------------------
def _open_loop_cluster(**overrides) -> tuple[ClusterSystem, TrafficConfig]:
    config = ClusterConfig(base=CroesusConfig(seed=2022), num_edges=2, frame_interval=0.5)
    traffic = dict(offered_rate=1.0, duration_s=8.0, mean_frames=6, frame_interval=0.5)
    traffic.update(overrides)
    return ClusterSystem(config), TrafficConfig(**traffic)


class TestOpenLoopCluster:
    def test_two_runs_are_bit_identical(self):
        def go():
            system, traffic = _open_loop_cluster()
            result = system.run_open_loop(traffic)
            return (result.makespan, result.throughput_fps, result.goodput_fps,
                    result.traffic.completed_frames, result.f_score)

        assert go() == go()

    def test_stats_are_conserved_without_control(self):
        system, traffic = _open_loop_cluster()
        result = system.run_open_loop(traffic)
        stats = result.traffic
        assert stats.offered_streams == stats.admitted_streams + stats.rejected_streams
        assert stats.rejected_streams == 0
        assert stats.shed_frames == 0
        assert stats.completed_frames == stats.admitted_frames
        assert result.goodput_fps == pytest.approx(
            stats.completed_frames / result.makespan
        )

    def test_traffic_summary_and_percentiles(self):
        system, traffic = _open_loop_cluster()
        result = system.run_open_loop(traffic)
        summary = result.traffic_summary()
        percentiles = result.latency_percentiles
        assert summary["offered_streams"] == result.traffic.offered_streams
        assert summary["p99_latency_ms"] == percentiles["p99_ms"]
        assert 0 < percentiles["p50_ms"] <= percentiles["p95_ms"] <= percentiles["p99_ms"]

    def test_shedding_renders_apology_responses(self):
        system, traffic = _open_loop_cluster(
            offered_rate=2.5, apology_budget=2.0, shed_threshold=0.3
        )
        result = system.run_open_loop(traffic)
        stats = result.traffic
        assert stats.shed_frames > 0
        assert stats.apologies_spent == stats.shed_frames
        assert stats.completed_frames + stats.shed_frames == stats.admitted_frames

    def test_each_shed_frame_leaves_one_apology_at_its_shed_instant(self, monkeypatch):
        # A cluster run renders responses to no client, so the sink's hooks
        # are where a shed frame and a served one show.
        #: ``(stream, frame_id) -> instants`` the sink was told the frame was shed.
        shed_at: dict[tuple[str, int], list[float]] = {}
        #: ``(stream, frame_id)`` of every frame the sink recorded.
        recorded: list[tuple[str, int]] = []
        shed = TraceSink.shed
        record_frame = TraceSink.record_frame

        def logged_shed(sink, stream, frame_id, when):
            shed_at.setdefault((stream, frame_id), []).append(when)
            return shed(sink, stream, frame_id, when)

        def logged_record_frame(sink, result, edge_id, initial, *rest):
            recorded.append((result.video_key, initial.frame_id))
            return record_frame(sink, result, edge_id, initial, *rest)

        admitted_at: dict[str, float] = {}
        admit = ClusterSystem._admit_stream

        def logged_admit(system, state, video):
            admitted_before = state.traffic.admitted_streams
            admit(system, state, video)
            if state.traffic.admitted_streams > admitted_before:
                admitted_at[video.name] = state.engine.now

        monkeypatch.setattr(TraceSink, "shed", logged_shed)
        monkeypatch.setattr(TraceSink, "record_frame", logged_record_frame)
        monkeypatch.setattr(ClusterSystem, "_admit_stream", logged_admit)
        system, traffic = _open_loop_cluster(
            offered_rate=2.5, apology_budget=2.0, shed_threshold=0.3
        )
        result = system.run_open_loop(traffic)
        interval = system.config.frame_interval
        assert len(shed_at) == result.traffic.shed_frames > 0
        for (stream, frame_id), instants in shed_at.items():
            # One shed per frame, at the frame's arrival instant; the edge
            # never saw the frame, so it is never recorded (no initial
            # response either).
            (when,) = instants
            assert when == pytest.approx(admitted_at[stream] + frame_id * interval)
            assert (stream, frame_id) not in recorded
        assert len(recorded) == len(set(recorded)) == result.traffic.completed_frames


class TestOpenLoopSingle:
    """A one-edge open loop is a ``ClusterSystem(num_edges=1)``: every
    concurrent stream contends for the one edge server."""

    @staticmethod
    def _one_edge(frame_interval: float) -> ClusterSystem:
        return ClusterSystem(
            ClusterConfig(base=CroesusConfig(seed=9), num_edges=1, frame_interval=frame_interval)
        )

    def test_single_deployment_open_loop(self):
        def go():
            traffic = TrafficConfig(
                offered_rate=0.5, duration_s=8.0, mean_frames=5, frame_interval=0.5
            )
            return self._one_edge(0.5).run_open_loop(traffic)

        first, second = go(), go()
        assert first.traffic.offered_streams > 0
        assert first.traffic.completed_frames > 0
        assert first.makespan == second.makespan
        assert first.goodput_fps == second.goodput_fps > 0
        assert first.latency_percentiles["p99_ms"] >= first.latency_percentiles["p50_ms"]

    def test_single_admission_rejects_under_backlog(self):
        traffic = TrafficConfig(
            offered_rate=3.0, duration_s=8.0, mean_frames=8, frame_interval=0.25,
            admission="queue-threshold",
        )
        result = self._one_edge(0.25).run_open_loop(traffic)
        assert result.traffic.rejected_streams > 0


# -- failure injection --------------------------------------------------------
class TestFailureInjector:
    def test_scheduled_mode_passes_through(self):
        injector = FailureInjector(schedule=())
        assert injector.draw_schedule(2, 10.0, rng=None) == ()

    def test_hazard_excludes_explicit_schedule(self):
        from repro.cluster.failure import FailureSpec

        with pytest.raises(ValueError, match="mutually"):
            FailureInjector(
                schedule=(FailureSpec(0, 1.0, 2.0),), hazard_rate=0.5
            )

    def test_hazard_draws_are_valid_and_seeded(self):
        injector = FailureInjector(hazard_rate=1.0, outage_s=0.5)

        def draw():
            return injector.draw_schedule(3, 20.0, rng=np.random.default_rng(4))

        first, second = draw(), draw()
        assert first == second
        assert len(first) > 0
        for spec in first:
            assert 0 <= spec.edge_id < 3
            assert spec.fail_at < 20.0
            assert spec.recover_at == pytest.approx(spec.fail_at + 0.5)
        # windows are disjoint (validate_failure_schedule enforced)
        ordered = sorted(first, key=lambda s: s.fail_at)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.fail_at >= earlier.recover_at

    def test_hazard_cluster_run_is_deterministic(self):
        config = ClusterConfig(
            base=CroesusConfig(seed=5), num_edges=3, frame_interval=0.5,
            failure_hazard_rate=0.8, failure_outage_s=1.0,
        )

        def go():
            streams = make_camera_streams(6, num_frames=10, seed=5)
            return ClusterSystem(config).run(streams)

        first, second = go(), go()
        assert [f.failed_at for f in first.failures] == [
            f.failed_at for f in second.failures
        ]
        assert len(first.failures) > 0
        assert first.makespan == second.makespan


class TestFailback:
    def test_streams_return_to_recovered_edge(self):
        config = ClusterConfig(
            base=CroesusConfig(seed=2022), num_edges=2, frame_interval=0.5,
            failure_schedule=((0, 2.0, 3.0),), failback=True,
            migration_high=0.05, migration_low=0.05,
        )
        system = ClusterSystem(config)
        traffic = TrafficConfig(offered_rate=1.5, duration_s=8.0, mean_frames=10,
                                frame_interval=0.5)
        result = system.run_open_loop(traffic)
        back = [move for move in result.migrations if move.reason == "edge_recovered"]
        assert len(result.failures) == 1
        assert back, "no stream migrated back to the recovered edge"
        assert all(move.to_edge == 0 for move in back)
        assert all(move.time >= result.failures[0].recovered_at for move in back)

    def test_failback_off_by_default(self):
        config = ClusterConfig(
            base=CroesusConfig(seed=2022), num_edges=2, frame_interval=0.5,
            failure_schedule=((0, 2.0, 3.0),),
            migration_high=0.05, migration_low=0.05,
        )
        system = ClusterSystem(config)
        traffic = TrafficConfig(offered_rate=1.5, duration_s=8.0, mean_frames=10,
                                frame_interval=0.5)
        result = system.run_open_loop(traffic)
        assert [move for move in result.migrations if move.reason == "edge_recovered"] == []


# -- spec / report / runner ---------------------------------------------------
class TestSpecAndReport:
    def test_traffic_spec_round_trips(self):
        spec = ScenarioSpec(
            deployment="cluster", traffic="flash-crowd", offered_rate=1.2,
            duration_s=10.0, peak_factor=3.0, stream_length="geometric",
            admission="token-bucket", admission_rate=0.8, shed_threshold=0.7,
            apology_budget=1.5, failback=True, failure_hazard_rate=0.2,
            failure_outage_s=0.5,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_traffic_requires_cluster_deployment(self):
        with pytest.raises(ValueError, match="cluster"):
            ScenarioSpec(deployment="single", traffic="poisson")

    def test_invalid_traffic_axes_raise(self):
        with pytest.raises(ValueError, match="traffic"):
            ScenarioSpec(deployment="cluster", traffic="bursty")
        with pytest.raises(ValueError, match="admission"):
            ScenarioSpec(deployment="cluster", admission="drop-all")
        with pytest.raises(ValueError, match="hazard"):
            ScenarioSpec(deployment="cluster", failure_hazard_rate=-1.0)
        with pytest.raises(ValueError, match="mutually"):
            ScenarioSpec(
                deployment="cluster", failure_hazard_rate=0.5,
                failure_schedule=((1, 1.0, 2.0),),
            )
        with pytest.raises(ValueError, match="2 edges"):
            ScenarioSpec(deployment="cluster", num_edges=1, failure_hazard_rate=0.5)

    def test_build_traffic_config_mirrors_spec(self):
        spec = ScenarioSpec(
            deployment="cluster", traffic="diurnal", offered_rate=0.7,
            duration_s=12.0, frames=9, fps=4.0, admission="queue-threshold",
        )
        traffic = build_traffic_config(spec)
        assert traffic.process == "diurnal"
        assert traffic.offered_rate == 0.7
        assert traffic.mean_frames == 9
        assert traffic.frame_interval == pytest.approx(0.25)
        assert traffic.admission == "queue-threshold"

    def test_build_traffic_config_rejects_closed_loop(self):
        with pytest.raises(ValueError, match="no traffic"):
            build_traffic_config(ScenarioSpec(deployment="cluster"))

    def test_open_loop_report_round_trips_and_validates(self):
        report = run(
            ScenarioSpec(
                deployment="cluster", traffic="poisson", offered_rate=0.6,
                duration_s=6.0, num_edges=2, frames=6, fps=2.0, seed=2022,
            )
        )
        payload = report.to_dict()
        validate_report(payload)
        assert payload["traffic"] is not None
        assert payload["goodput_fps"] > 0
        rebuilt = type(report).from_dict(payload)
        assert rebuilt.traffic == report.traffic

    def test_closed_loop_report_fills_load_from_throughput(self):
        report = run(
            ScenarioSpec(deployment="cluster", num_edges=2, streams=4, frames=6, seed=11)
        )
        assert report.traffic is None
        assert report.offered_load_fps == report.throughput_fps
        assert report.admitted_load_fps == report.throughput_fps
        assert report.goodput_fps == report.throughput_fps
        assert report.shed_rate == 0.0
        assert report.p99_latency_ms >= report.p50_latency_ms > 0


# -- sustained-overload acceptance --------------------------------------------
def _overload_spec(**overrides) -> ScenarioSpec:
    base = dict(
        deployment="cluster", traffic="poisson", offered_rate=2.2,
        duration_s=12.0, num_edges=2, frames=10, fps=2.0, seed=2022,
        admission="queue-threshold", admission_rate=0.85,
        apology_budget=2.0, shed_threshold=0.9,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture(scope="module")
def overload_cells():
    """Control and no-control runs at ~2x capacity, two run lengths each."""
    return {
        "control": run(_overload_spec()),
        "control_long": run(_overload_spec(duration_s=24.0)),
        "baseline": run(_overload_spec(admission="none", apology_budget=None)),
        "baseline_long": run(
            _overload_spec(admission="none", apology_budget=None, duration_s=24.0)
        ),
    }


class TestSustainedOverloadAcceptance:
    def test_offered_load_is_at_least_twice_capacity(self, overload_cells):
        capacity = overload_cells["baseline_long"].goodput_fps
        steady_offered = 2.2 * 10  # streams/s x frames/stream at 2 fps
        assert steady_offered >= 2.0 * capacity

    def test_control_goodput_within_15pct_of_capacity(self, overload_cells):
        capacity = overload_cells["baseline_long"].goodput_fps
        assert overload_cells["control_long"].goodput_fps >= 0.85 * capacity

    def test_control_p99_is_bounded(self, overload_cells):
        short = overload_cells["control"].p99_latency_ms
        long = overload_cells["control_long"].p99_latency_ms
        assert long <= 1.5 * short

    def test_baseline_p99_grows_with_run_length(self, overload_cells):
        short = overload_cells["baseline"].p99_latency_ms
        long = overload_cells["baseline_long"].p99_latency_ms
        assert long >= 1.5 * short

    def test_control_sheds_and_rejects_under_overload(self, overload_cells):
        control = overload_cells["control_long"]
        assert control.shed_rate > 0.0
        assert control.traffic["rejected_streams"] > 0
        baseline = overload_cells["baseline_long"]
        assert baseline.shed_rate == 0.0
        assert baseline.traffic["rejected_streams"] == 0
