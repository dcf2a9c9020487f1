"""Tests for edge-model feedback (correction memory and temporal smoothing)."""

import pytest

from repro.detection.feedback import CorrectionMemory, TemporalSmoother
from repro.detection.matching import match_labels

from helpers import make_detection, make_label_set


def _report(edge_name: str, cloud_name: str | None):
    """A one-detection match report: edge label vs cloud verdict."""
    edge = make_label_set(0, make_detection(edge_name, x=100))
    if cloud_name is None:
        cloud = make_label_set(0)
    else:
        cloud = make_label_set(0, make_detection(cloud_name, x=100))
    return match_labels(edge, cloud)


class TestCorrectionMemory:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            CorrectionMemory(min_observations=0)
        with pytest.raises(ValueError):
            CorrectionMemory(substitution_threshold=0.0)

    def test_reliability_defaults_to_one_before_observations(self):
        memory = CorrectionMemory(min_observations=3)
        assert memory.reliability("dog") == 1.0

    def test_confirmations_keep_reliability_high(self):
        memory = CorrectionMemory(min_observations=3)
        for _ in range(5):
            memory.observe(_report("dog", "dog"))
        assert memory.reliability("dog") == 1.0

    def test_corrections_lower_reliability(self):
        memory = CorrectionMemory(min_observations=3)
        for _ in range(4):
            memory.observe(_report("dog", "cat"))
        assert memory.reliability("dog") == 0.0
        assert memory.stats_for("dog").most_common_correction() == "cat"

    def test_spurious_detections_counted(self):
        memory = CorrectionMemory(min_observations=2)
        for _ in range(3):
            memory.observe(_report("dog", None))
        stats = memory.stats_for("dog")
        assert stats.spurious == 3
        assert memory.reliability("dog") == 0.0

    def test_adjust_lowers_confidence_of_unreliable_class(self):
        memory = CorrectionMemory(min_observations=2, substitution_threshold=0.99)
        for _ in range(4):
            memory.observe(_report("dog", None))
        labels = make_label_set(1, make_detection("dog", confidence=0.8))
        adjusted = memory.adjust(labels)
        assert adjusted.detections[0].confidence < 0.8

    def test_adjust_substitutes_consistently_corrected_class(self):
        memory = CorrectionMemory(min_observations=3, substitution_threshold=0.6)
        for _ in range(5):
            memory.observe(_report("dog", "cat"))
        labels = make_label_set(1, make_detection("dog", confidence=0.7))
        adjusted = memory.adjust(labels)
        assert adjusted.detections[0].name == "cat"

    def test_adjust_leaves_unknown_classes_untouched(self):
        memory = CorrectionMemory()
        labels = make_label_set(1, make_detection("zebra", confidence=0.66))
        adjusted = memory.adjust(labels)
        assert adjusted.detections[0] == labels.detections[0]

    def test_adjust_preserves_frame_metadata(self):
        memory = CorrectionMemory()
        labels = make_label_set(7, make_detection("dog"))
        adjusted = memory.adjust(labels)
        assert adjusted.frame_id == 7
        assert adjusted.model_name == labels.model_name


class TestTemporalSmoother:
    def test_window_validated(self):
        with pytest.raises(ValueError):
            TemporalSmoother(window=0)

    def test_single_flicker_is_suppressed(self):
        smoother = TemporalSmoother(window=5)
        for _ in range(3):
            smoother.smooth(make_label_set(0, make_detection("dog", object_id=1)))
        flickered = smoother.smooth(make_label_set(3, make_detection("cat", object_id=1)))
        assert flickered.detections[0].name == "dog"

    def test_a_tie_keeps_the_label_seen_first(self):
        """A one-frame flicker on a two-frame history is a 1-1 tie; it must
        resolve the same way under every PYTHONHASHSEED (the earlier label
        stays), for any pair of names."""
        for first, second in [("dog", "cat"), ("cat", "dog"), ("car", "truck"), ("truck", "car")]:
            smoother = TemporalSmoother(window=5)
            smoother.smooth(make_label_set(0, make_detection(first, object_id=1)))
            tied = smoother.smooth(make_label_set(1, make_detection(second, object_id=1)))
            assert tied.detections[0].name == first

    def test_persistent_change_eventually_wins(self):
        smoother = TemporalSmoother(window=3)
        smoother.smooth(make_label_set(0, make_detection("dog", object_id=1)))
        for frame in range(1, 4):
            result = smoother.smooth(make_label_set(frame, make_detection("cat", object_id=1)))
        assert result.detections[0].name == "cat"

    def test_untracked_detections_pass_through(self):
        smoother = TemporalSmoother()
        labels = make_label_set(0, make_detection("dog", object_id=None))
        assert smoother.smooth(labels).detections[0].name == "dog"

    def test_objects_tracked_independently(self):
        smoother = TemporalSmoother(window=5)
        smoother.smooth(
            make_label_set(
                0,
                make_detection("dog", object_id=1, x=100),
                make_detection("cat", object_id=2, x=400),
            )
        )
        result = smoother.smooth(
            make_label_set(
                1,
                make_detection("dog", object_id=1, x=100),
                make_detection("cat", object_id=2, x=400),
            )
        )
        assert [d.name for d in result] == ["dog", "cat"]
        assert smoother.tracked_objects() == 2
