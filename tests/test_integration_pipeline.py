"""Integration tests: full pipeline, applications wired into the system,
cross-module consistency of the recorded metrics."""

import pytest

from repro.core.apps.smart_campus import SmartCampusApp
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.optimizer import ThresholdEvaluator, brute_force_search
from repro.core.system import CroesusSystem
from repro.detection.profiles import CLOUD_YOLOV3_320, CLOUD_YOLOV3_608
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.video.library import make_video


class TestEndToEndPipeline:
    def test_all_library_videos_run(self):
        config = CroesusConfig(seed=2)
        for key in ("v1", "v2", "v3", "v4", "v5"):
            system = CroesusSystem(config)
            result = system.run(make_video(key, num_frames=12, seed=2))
            assert result.num_frames == 12

    def test_frame_metrics_are_internally_consistent(self):
        config = CroesusConfig(seed=2)
        system = CroesusSystem(config)
        result = system.run(make_video("v2", num_frames=25, seed=2))
        for trace in result.traces:
            assert trace.latency.final_latency >= trace.latency.initial_latency
            if not trace.sent_to_cloud:
                assert trace.latency.cloud_detection == 0.0
                assert trace.frame_bytes_sent == 0
            else:
                assert trace.frame_bytes_sent > 0

    def test_ms_sr_and_ms_ia_histories_validate(self):
        for level, checker in (
            (ConsistencyLevel.MS_IA, check_ms_ia),
            (ConsistencyLevel.MS_SR, check_ms_sr),
        ):
            config = CroesusConfig(seed=2, consistency=level)
            system = CroesusSystem(config)
            system.run(make_video("v1", num_frames=20, seed=2))
            assert len(system.history) > 0  # a check over no section is vacuous
            result = checker(system.history)
            assert result, result.violations

    def test_optimized_thresholds_meet_target_on_fresh_run(self):
        """Thresholds found by the optimiser should hold up when plugged back
        into a full system run on the same video."""
        config = CroesusConfig(seed=9)
        evaluator = ThresholdEvaluator.profile(config, "v1", num_frames=60)
        optimum = brute_force_search(evaluator, target_f_score=0.75)
        assert optimum.feasible

        tuned = config.with_thresholds(*optimum.thresholds)
        system = CroesusSystem(tuned)
        result = system.run(make_video("v1", num_frames=60, seed=9))
        assert result.f_score >= 0.75 - 0.1  # allow small sampling slack
        assert result.bandwidth_utilization <= optimum.best.bandwidth_utilization + 0.15

    def test_cloud_model_size_affects_detection_latency(self):
        small = CroesusConfig(seed=2, lower_threshold=0.0, upper_threshold=0.999).with_cloud_profile(
            CLOUD_YOLOV3_320
        )
        large = CroesusConfig(seed=2, lower_threshold=0.0, upper_threshold=0.999).with_cloud_profile(
            CLOUD_YOLOV3_608
        )
        small_run = CroesusSystem(small).run(make_video("v1", num_frames=20, seed=2))
        large_run = CroesusSystem(large).run(make_video("v1", num_frames=20, seed=2))
        assert (
            large_run.average_latency.cloud_detection
            > small_run.average_latency.cloud_detection * 2
        )


class TestApplicationIntegration:
    def test_smart_campus_runs_inside_croesus_system(self):
        """Wire the campus bank into the full pipeline over a synthetic video
        whose detections use building names."""
        from repro.video.synthetic import ObjectClassSpec, SyntheticVideo
        from repro.sim.rng import RngRegistry

        buildings = {"Engineering": {"study_rooms": 3}, "Library": {"study_rooms": 2}}
        app = SmartCampusApp(buildings=buildings)

        config = CroesusConfig(seed=3)
        # The system takes the app's (still empty) bank; installing the app
        # afterwards registers the trigger rules and seeds the edge store.
        system = CroesusSystem(config, bank=app.bank)
        app.install(system.edge.store)

        video = SyntheticVideo(
            name="campus",
            query_class="Engineering",
            classes=(
                ObjectClassSpec(
                    name="Engineering",
                    confusable_name="Library",
                    arrival_rate=0.4,
                    size_fraction=0.3,
                ),
                ObjectClassSpec(
                    name="Library",
                    confusable_name="Engineering",
                    arrival_rate=0.3,
                    size_fraction=0.3,
                ),
            ),
            num_frames=30,
            rng=RngRegistry(3).stream("campus-video"),
            auxiliary_click_rate=0.3,
        )
        result = system.run(video)
        assert result.total_transactions > 0
        # Reservations and info lookups should have written to the store.
        reservation_keys = [k for k in system.edge.store.keys() if k.startswith("reservation:")]
        assert isinstance(reservation_keys, list)
