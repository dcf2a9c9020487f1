"""Tests for bandwidth thresholding."""

import pytest

from repro.core.thresholds import ConfidenceInterval, ThresholdPolicy

from helpers import make_detection, make_label_set


class TestThresholdPolicy:
    def test_classification_intervals(self):
        policy = ThresholdPolicy(0.3, 0.7)
        assert policy.classify(0.1) is ConfidenceInterval.DISCARD
        assert policy.classify(0.3) is ConfidenceInterval.VALIDATE
        assert policy.classify(0.5) is ConfidenceInterval.VALIDATE
        assert policy.classify(0.7) is ConfidenceInterval.VALIDATE
        assert policy.classify(0.9) is ConfidenceInterval.KEEP

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(0.7, 0.3)
        with pytest.raises(ValueError):
            ThresholdPolicy(-0.1, 0.5)

    def test_degenerate_interval_never_validates_almost_anything(self):
        policy = ThresholdPolicy(0.0, 0.0)
        assert policy.classify(0.5) is ConfidenceInterval.KEEP
        assert policy.classify(0.0) is ConfidenceInterval.VALIDATE

    def test_classify_labels_partitions(self):
        policy = ThresholdPolicy(0.3, 0.7)
        labels = make_label_set(
            0,
            make_detection("low", confidence=0.1),
            make_detection("mid", confidence=0.5),
            make_detection("high", confidence=0.9),
        )
        partition = policy.classify_labels(labels)
        assert [d.name for d in partition[ConfidenceInterval.DISCARD]] == ["low"]
        assert [d.name for d in partition[ConfidenceInterval.VALIDATE]] == ["mid"]
        assert [d.name for d in partition[ConfidenceInterval.KEEP]] == ["high"]

    def test_should_validate(self):
        policy = ThresholdPolicy(0.3, 0.7)
        assert policy.should_validate([make_detection(confidence=0.5)])
        assert not policy.should_validate([make_detection(confidence=0.9)])
        assert not policy.should_validate([make_detection(confidence=0.1)])
        assert not policy.should_validate([])

    def test_surviving_labels_drop_discard_interval(self):
        policy = ThresholdPolicy(0.3, 0.7)
        labels = make_label_set(
            0,
            make_detection("low", confidence=0.1),
            make_detection("mid", confidence=0.5),
            make_detection("high", confidence=0.9),
        )
        assert policy.surviving_labels(labels).names() == ["mid", "high"]

    def test_partition_is_survivors_and_sent_bit_in_one_pass(self):
        """Boundary confidences included: θL and θU both validate."""
        confidences = (0.1, 0.3, 0.5, 0.7, 0.9, 0.3)
        labels = make_label_set(0, *(make_detection(confidence=c) for c in confidences))
        for lower, upper in ((0.3, 0.7), (0.0, 0.0), (0.31, 0.49), (0.95, 1.0), (0.0, 1.0)):
            policy = ThresholdPolicy(lower, upper)
            rows, sent = policy.partition(labels)
            survivors = policy.surviving_labels(labels).detections
            assert [labels.detections[row] for row in rows] == list(survivors)
            assert sent == policy.should_validate(labels)
        assert ThresholdPolicy(0.3, 0.7).partition(make_label_set(0)) == ((), False)

    def test_validate_width(self):
        assert ThresholdPolicy(0.2, 0.6).validate_width == pytest.approx(0.4)

    def test_wider_interval_validates_superset(self):
        narrow = ThresholdPolicy(0.4, 0.5)
        wide = ThresholdPolicy(0.2, 0.8)
        for confidence in (0.05, 0.25, 0.45, 0.65, 0.95):
            detection = [make_detection(confidence=confidence)]
            if narrow.should_validate(detection):
                assert wide.should_validate(detection)

    def test_as_tuple(self):
        assert ThresholdPolicy(0.2, 0.6).as_tuple() == (0.2, 0.6)
