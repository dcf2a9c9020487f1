"""Tests for detections and label sets."""

import pytest

from repro.detection.labels import LabelSet

from helpers import make_detection, make_label_set


class TestDetection:
    def test_confidence_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_detection(confidence=1.5)
        with pytest.raises(ValueError):
            make_detection(confidence=-0.1)

    def test_with_confidence(self):
        detection = make_detection(confidence=0.5)
        updated = detection.with_confidence(0.9)
        assert updated.confidence == 0.9
        assert updated.name == detection.name
        assert detection.confidence == 0.5  # original unchanged

    def test_with_name(self):
        detection = make_detection(name="car")
        assert detection.with_name("bus").name == "bus"

    def test_is_hashable(self):
        detection = make_detection()
        assert detection in {detection}


class TestLabelSet:
    def test_iteration_and_len(self):
        labels = make_label_set(0, make_detection("a"), make_detection("b"))
        assert len(labels) == 2
        assert [d.name for d in labels] == ["a", "b"]

    def test_bool_of_empty_set(self):
        assert not LabelSet(frame_id=0)
        assert make_label_set(0, make_detection())

    def test_names(self):
        labels = make_label_set(0, make_detection("dog"), make_detection("cat"))
        assert labels.names() == ["dog", "cat"]

    def test_filter_confidence(self):
        labels = make_label_set(
            0, make_detection("a", confidence=0.2), make_detection("b", confidence=0.9)
        )
        filtered = labels.filter_confidence(0.5)
        assert filtered.names() == ["b"]
        assert filtered.frame_id == labels.frame_id

    def test_filter_confidence_keeps_boundary(self):
        labels = make_label_set(0, make_detection("a", confidence=0.5))
        assert labels.filter_confidence(0.5).names() == ["a"]
