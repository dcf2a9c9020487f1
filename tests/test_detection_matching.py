"""Tests for edge-to-cloud label matching (the final-section rules)."""

import pytest

from repro.detection.matching import MatchOutcome, match_labels

from helpers import make_detection, make_label_set


class TestMatchLabels:
    def test_confirmed_when_names_and_boxes_agree(self):
        edge = make_label_set(0, make_detection("person", x=100, y=100))
        cloud = make_label_set(0, make_detection("person", x=105, y=102))
        report = match_labels(edge, cloud)
        assert len(report.matches) == 1
        match = report.matches[0]
        assert match.outcome is MatchOutcome.CONFIRMED
        assert match.was_correct
        assert match.corrected_label is match.edge

    def test_corrected_when_names_disagree(self):
        edge = make_label_set(0, make_detection("dog", x=100))
        cloud = make_label_set(0, make_detection("cat", x=100))
        report = match_labels(edge, cloud)
        match = report.matches[0]
        assert match.outcome is MatchOutcome.CORRECTED
        assert not match.was_correct
        assert match.corrected_label.name == "cat"
        assert report.corrections_needed == 1

    def test_missing_when_no_cloud_overlap(self):
        edge = make_label_set(0, make_detection("dog", x=0, y=0))
        cloud = make_label_set(0, make_detection("dog", x=900, y=600))
        report = match_labels(edge, cloud)
        match = report.matches[0]
        assert match.outcome is MatchOutcome.MISSING
        assert match.corrected_label is None
        # the far-away cloud label is unmatched and should trigger new work
        assert len(report.unmatched_cloud) == 1

    def test_unmatched_cloud_labels_reported(self):
        edge = make_label_set(0, make_detection("person", x=100))
        cloud = make_label_set(
            0, make_detection("person", x=100), make_detection("person", x=700)
        )
        report = match_labels(edge, cloud)
        assert len(report.unmatched_cloud) == 1

    def test_best_overlap_wins_when_multiple_candidates(self):
        edge = make_label_set(0, make_detection("person", x=100, y=100, size=50))
        close = make_detection("close", x=102, y=100, size=50)
        far = make_detection("far", x=130, y=100, size=50)
        cloud = make_label_set(0, far, close)
        report = match_labels(edge, cloud)
        assert report.matches[0].cloud.name == "close"

    def test_first_cloud_label_wins_an_exact_tie(self):
        """An edge box nested in two cloud boxes overlaps both by exactly
        1.0: the earlier cloud label is the match, the later one stays
        unmatched."""
        edge = make_label_set(0, make_detection("person", x=110, y=110, size=20))
        wide = make_detection("wide", x=100, y=100, size=50)
        wider = make_detection("wider", x=90, y=90, size=80)
        for first, second in ((wide, wider), (wider, wide)):
            report = match_labels(edge, make_label_set(0, first, second))
            assert report.matches[0].overlap == 1.0
            assert report.matches[0].cloud is first
            assert report.unmatched_cloud == (second,)

    def test_overlap_threshold_respected(self):
        edge = make_label_set(0, make_detection("person", x=100, size=50))
        cloud = make_label_set(0, make_detection("person", x=148, size=50))  # ~4% overlap
        strict = match_labels(edge, cloud, min_overlap=0.5)
        assert strict.matches[0].outcome is MatchOutcome.MISSING
        loose = match_labels(edge, cloud, min_overlap=0.01)
        assert loose.matches[0].outcome is MatchOutcome.CONFIRMED

    def test_invalid_overlap_rejected(self):
        edge = make_label_set(0)
        cloud = make_label_set(0)
        with pytest.raises(ValueError):
            match_labels(edge, cloud, min_overlap=1.5)

    def test_empty_edge_labels(self):
        cloud = make_label_set(0, make_detection("person"))
        report = match_labels(make_label_set(0), cloud)
        assert report.matches == ()
        assert len(report.unmatched_cloud) == 1
        assert report.corrections_needed == 0

    def test_empty_cloud_labels(self):
        edge = make_label_set(0, make_detection("person"))
        report = match_labels(edge, make_label_set(0))
        assert report.matches[0].outcome is MatchOutcome.MISSING
        assert report.unmatched_cloud == ()
