"""Tests for online per-stream threshold adaptation (core/adaptive.py)."""

from __future__ import annotations

import hashlib
import json

import pytest
from helpers import count_constructions

from repro.core.adaptive import (
    ADAPTATION_MODES,
    AdaptationConfig,
    AdaptationManager,
    MAX_THRESHOLD,
)
from repro.core.optimizer import ThresholdEvaluator, ThresholdScore, brute_force_search
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.core.thresholds import ThresholdPolicy
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport
from repro.experiments import get_scenario, run as run_scenario


def _manager(mode: str = "feedback", **overrides) -> AdaptationManager:
    config = AdaptationConfig(mode=mode, **overrides)
    return AdaptationManager(config, ThresholdPolicy(0.3, 0.7))


def _trace(frame_id: int, confidences: tuple[float, ...]) -> FrameTrace:
    detections = tuple(
        Detection("object", confidence, BoundingBox(i * 20.0, 0.0, i * 20.0 + 10.0, 10.0), i)
        for i, confidence in enumerate(confidences)
    )
    labels = LabelSet(frame_id, detections, "edge")
    return FrameTrace.from_labels(
        frame_id=frame_id,
        edge_labels=labels,
        cloud_labels=labels,
        observed_labels=labels,
        sent_to_cloud=True,
        latency=LatencyBreakdown(edge_detection=0.01, cloud_detection=0.05),
        accuracy=AccuracyReport(len(detections), 0, 0),
    )


def _validated(trace: FrameTrace) -> dict:
    """What the frame body hands the retune tuner for a validated frame:
    its latency and the overlap table of its live (edge, cloud) labels."""
    table = FrameOverlaps(trace.edge_labels.detections, trace.cloud_labels.detections, 0.10)
    return {"latency": trace.latency, "overlaps": table}


class TestAdaptationConfig:
    def test_accepts_every_registered_mode(self):
        for mode in ADAPTATION_MODES:
            assert AdaptationConfig(mode=mode).mode == mode

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "nope"},
            {"mode": "feedback", "interval_s": 0.0},
            {"mode": "feedback", "interval_s": -1.0},
            {"mode": "feedback", "target_f": 0.0},
            {"mode": "feedback", "target_f": 1.5},
            {"mode": "retune", "step": 0.0},
            {"mode": "retune", "step": 0.6},
            {"mode": "retune", "min_samples": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            AdaptationConfig(**kwargs)


class TestFeedbackController:
    def test_streams_start_on_the_static_policy(self):
        manager = _manager()
        policy = manager.policy_for("cam0")
        assert (policy.lower, policy.upper) == (0.3, 0.7)

    def test_high_correction_rate_widens_the_band(self):
        manager = _manager(target_f=0.8, step=0.05)
        for _ in range(10):  # every validation came back corrected
            manager.observe_frame("cam0", sent=True, corrections=1)
        (update,) = manager.adapt_all(now=1.0)
        assert (update.lower, update.upper) == (0.25, 0.75)

    def test_blind_window_also_widens(self):
        """No validations at all is treated like an untrusted edge."""
        manager = _manager()
        for _ in range(10):
            manager.observe_frame("cam0", sent=False, corrections=0)
        (update,) = manager.adapt_all(now=1.0)
        assert update.lower < 0.3 and update.upper > 0.7

    def test_clean_validations_narrow_from_the_top(self):
        manager = _manager(target_f=0.8, step=0.05)
        for _ in range(10):  # all validated, none corrected
            manager.observe_frame("cam0", sent=True, corrections=0)
        (update,) = manager.adapt_all(now=1.0)
        assert update.lower == 0.3
        assert update.upper == 0.65

    def test_moderate_correction_rate_holds_in_the_deadband(self):
        """Rate between 0.5*slack and slack: no move, no update."""
        manager = _manager(target_f=0.8)  # slack 0.2, deadband (0.1, 0.2]
        for i in range(20):
            manager.observe_frame("cam0", sent=True, corrections=1 if i < 3 else 0)
        assert manager.adapt_all(now=1.0) == []
        assert manager.threshold_updates == 0

    def test_empty_window_is_a_no_op(self):
        manager = _manager()
        manager.policy_for("cam0")  # controller exists, saw no frames
        assert manager.adapt_all(now=1.0) == []

    def test_thresholds_stay_clamped(self):
        manager = _manager(step=0.5)
        for tick in range(4):  # widen past both rails
            for _ in range(5):
                manager.observe_frame("cam0", sent=True, corrections=1)
            manager.adapt_all(now=float(tick))
        lower, upper = manager.final_thresholds()["cam0"]
        assert lower == 0.0
        assert upper == MAX_THRESHOLD

    def test_streams_adapt_independently(self):
        manager = _manager(target_f=0.8)
        for _ in range(10):
            manager.observe_frame("noisy", sent=True, corrections=1)
            manager.observe_frame("clean", sent=True, corrections=0)
        updates = manager.adapt_all(now=1.0)
        assert {update.stream for update in updates} == {"noisy", "clean"}
        final = manager.final_thresholds()
        assert final["noisy"][1] > 0.7  # widened
        assert final["clean"][1] < 0.7  # narrowed

    def test_feedback_mode_does_no_tuner_work(self):
        manager = _manager()
        for _ in range(10):
            manager.observe_frame("cam0", sent=True, corrections=1)
        manager.adapt_all(now=1.0)
        assert manager.tuner_evaluations == 0
        assert manager.tuner_frame_rescores == 0
        assert not manager.wants_validated_frames


class TestRetuneController:
    def test_waits_for_min_samples(self):
        manager = _manager("retune", min_samples=6)
        assert manager.wants_validated_frames
        for i in range(5):
            manager.observe_frame("cam0", sent=True, corrections=0, **_validated(_trace(i, (0.5,))))
        assert manager.adapt_all(now=1.0) == []
        assert manager.tuner_evaluations == 0

    def test_retunes_once_evidence_accumulates(self):
        manager = _manager("retune", min_samples=4, target_f=0.8)
        for i in range(6):
            manager.observe_frame(
                "cam0", sent=True, corrections=0, **_validated(_trace(i, (0.3, 0.5, 0.9)))
            )
        manager.adapt_all(now=1.0)
        assert manager.tuner_evaluations > 0
        assert manager.tuner_frame_rescores > 0
        # The incremental tuner must beat the grid's evaluations x frames.
        assert manager.tuner_frame_rescores < manager.tuner_grid_rescores

    def test_no_new_frames_means_no_retune(self):
        """Re-running the search on unchanged history is skipped."""
        manager = _manager("retune", min_samples=2)
        for i in range(4):
            manager.observe_frame("cam0", sent=True, corrections=0, **_validated(_trace(i, (0.5,))))
        manager.adapt_all(now=1.0)
        evaluations = manager.tuner_evaluations
        assert evaluations > 0
        manager.adapt_all(now=2.0)  # nothing observed since the last tick
        assert manager.tuner_evaluations == evaluations

    def test_frames_are_charged_at_the_tick_that_folds_them(self):
        """Label matching is paid lazily, by the search — frames observed
        after the last tick of a run cost nothing."""
        manager = _manager("retune", min_samples=2)
        for i in range(4):
            manager.observe_frame("cam0", sent=True, corrections=0, **_validated(_trace(i, (0.5,))))
        manager.adapt_all(now=1.0)
        rescores = manager.tuner_frame_rescores
        assert rescores > 0
        for i in range(4, 8):
            manager.observe_frame(
                "cam0", sent=True, corrections=0, **_validated(_trace(i, (0.2, 0.6, 0.8)))
            )
        assert manager.tuner_frame_rescores == rescores
        manager.adapt_all(now=2.0)
        assert manager.tuner_frame_rescores > rescores

    def test_a_tick_builds_one_score_per_retuned_stream(self, monkeypatch):
        """A tick reads the winner off the scorer's table: one
        ``ThresholdScore`` per stream searched, not one per grid pair —
        while still metering the whole grid as searched."""
        manager = _manager("retune", min_samples=4)
        for i in range(6):
            for stream in ("cam0", "cam1"):
                manager.observe_frame(
                    stream, sent=True, corrections=0, **_validated(_trace(i, (0.3, 0.5, 0.9)))
                )
        built = count_constructions(monkeypatch, ThresholdScore)
        manager.adapt_all(now=1.0)
        assert built["ThresholdScore"] == 2
        assert manager.tuner_evaluations == 2 * 210
        manager.adapt_all(now=2.0)  # nothing new: no search, no score
        assert built["ThresholdScore"] == 2

    def test_a_tick_moves_to_the_offline_search_optimum(self):
        """The in-loop selection and the offline search over every score
        are the same optimiser."""
        config = AdaptationConfig(mode="retune", min_samples=4, target_f=0.9)
        manager = AdaptationManager(config, ThresholdPolicy(0.3, 0.7))
        traces = [_trace(i, (0.05 + 0.1 * (i % 4), 0.45, 0.9)) for i in range(9)]
        for trace in traces:
            manager.observe_frame("cam0", sent=True, corrections=0, **_validated(trace))
        manager.adapt_all(now=1.0)
        offline = brute_force_search(
            ThresholdEvaluator(traces), config.target_f, step=config.step
        )
        assert manager.final_thresholds() == {"cam0": offline.thresholds}
        assert manager.tuner_evaluations == offline.evaluations
        assert manager.tuner_frame_rescores == offline.frame_rescores

    def test_the_tuner_shares_the_overlap_table_it_is_handed(self, monkeypatch):
        manager = _manager("retune", min_samples=2)
        traces = [_trace(i, (0.3, 0.5, 0.9)) for i in range(4)]
        tables = [
            FrameOverlaps(trace.edge_labels.detections, trace.cloud_labels.detections, 0.10)
            for trace in traces
        ]
        built = count_constructions(monkeypatch, FrameOverlaps)
        for trace, table in zip(traces, tables):
            manager.observe_frame("cam0", sent=True, corrections=0, latency=trace.latency, overlaps=table)
        manager.adapt_all(now=1.0)
        assert manager.tuner_frame_rescores > 0
        assert built["FrameOverlaps"] == 0

    def test_unsent_frames_do_not_feed_the_scorer(self):
        """Only validated frames carry cloud labels the edge can learn from."""
        manager = _manager("retune", min_samples=2)
        for i in range(10):
            manager.observe_frame("cam0", sent=False, corrections=0)
        assert manager.adapt_all(now=1.0) == []
        assert manager.tuner_evaluations == 0


class TestAdaptiveScenario:
    """End-to-end determinism of the registered adaptive scenario."""

    def test_adaptive_thresholds_run_is_deterministic(self):
        first = run_scenario(get_scenario("adaptive-thresholds"))
        second = run_scenario(get_scenario("adaptive-thresholds"))
        assert first.to_dict() == second.to_dict()

    def test_adaptive_run_reports_the_loop_closure(self):
        report = run_scenario(get_scenario("adaptive-thresholds"))
        assert report.threshold_updates > 0
        assert report.adaptation is not None
        assert report.adaptation["mode"] == "retune"
        assert len(report.adaptation["stream_thresholds"]) == report.scenario["streams"]
        # The artifact-gated bound: incremental rescores >= 10x under grid cost.
        assert report.tuner_frame_rescores * 10 <= report.adaptation["tuner_grid_rescores"]

    @pytest.mark.parametrize(
        "overrides, updates, evaluations, rescores, grid_rescores, thresholds",
        [
            (
                {},
                52, 15750, 1175, 283920,
                {"cam0-v1": [0.0, 0.2], "cam1-v2": [0.2, 0.3],
                 "cam2-v3": [0.65, 0.9], "cam3-v4": [0.3, 0.35]},
            ),
            # Re-pinned once (was 10, 2310, 134, 25410, [0.15, 0.25]) when
            # CroesusSystem moved onto the shared frame body: like the
            # cluster, a frame now reads its stream's thresholds at
            # *arrival* and feeds the tuner when its final stage is
            # computed, where the old single-edge loop read them after the
            # initial response and fed the tuner after the final one — so
            # a tick falling between those instants sees one more frame.
            (
                {"deployment": "single", "num_edges": 1},
                10, 2730, 156, 32760,
                {"v1": [0.3, 0.35]},
            ),
        ],
        ids=["cluster", "single-edge"],
    )
    def test_retune_trajectory_is_pinned(
        self, overrides, updates, evaluations, rescores, grid_rescores, thresholds
    ):
        """The tuner's choices and metered work on both deployments, as
        recorded before the search moved onto the running grid table:
        same optimum at every tick, same label-match count."""
        report = run_scenario(get_scenario("adaptive-thresholds").with_(**overrides))
        assert report.threshold_updates == updates
        assert report.tuner_evaluations == evaluations
        assert report.tuner_frame_rescores == rescores
        assert report.adaptation["tuner_grid_rescores"] == grid_rescores
        assert report.adaptation["stream_thresholds"] == thresholds

    def test_single_edge_retune_report_is_pinned(self):
        """The single-edge adaptive report, whole: sha256 over its
        sorted-keys JSON, captured before both deployments built their
        adaptation fields through ``AdaptationManager.report_fields``."""
        report = run_scenario(get_scenario("fig4-ms-ia").with_(threshold_adaptation="retune"))
        digest = hashlib.sha256(
            json.dumps(report.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert digest == "87a6bf665eae7c898e77f36e50bc1e4754019af54100870bb652374033b1327f"
        assert report.deployment == "single" and report.threshold_updates == 25

    def test_both_deployments_report_one_adaptation_block(self):
        single = run_scenario(get_scenario("fig4-ms-ia").with_(threshold_adaptation="retune"))
        cluster = run_scenario(get_scenario("adaptive-thresholds"))
        assert set(single.adaptation) == set(cluster.adaptation) == {
            "mode",
            "interval_s",
            "target_f",
            "tuner_grid_rescores",
            "stream_thresholds",
        }

    def test_static_run_reports_no_adaptation(self):
        spec = get_scenario("adaptive-thresholds").with_(threshold_adaptation=None)
        report = run_scenario(spec)
        assert report.threshold_updates == 0
        assert report.tuner_evaluations == 0
        assert report.adaptation is None
