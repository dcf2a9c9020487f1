"""Tests for accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detection.metrics import (
    AccuracyReport,
    aggregate_reports,
    evaluate_detections,
    f_score,
    f_score_of_counts,
    f_scores_of_counts,
)

from helpers import make_detection, make_label_set


class TestFScore:
    def test_perfect(self):
        assert f_score(1.0, 1.0) == 1.0

    def test_zero_when_both_zero(self):
        assert f_score(0.0, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert f_score(0.5, 1.0) == pytest.approx(2 / 3)

    def test_symmetric(self):
        assert f_score(0.3, 0.9) == f_score(0.9, 0.3)


class TestFScoresOfCounts:
    counts = st.integers(0, 10**7)

    @given(st.lists(st.tuples(counts, counts, counts), min_size=1, max_size=40))
    def test_array_form_is_the_scalar_form_bit_for_bit(self, triples):
        """The threshold table selects on the array form and the
        evaluator scores with the scalar one: ``>=`` against a target and
        every tie must compare identically, zero denominators included."""
        tp, fp, fn = np.array(triples, dtype=np.int64).T
        scalar = [f_score_of_counts(*triple) for triple in triples]
        assert f_scores_of_counts(tp, fp, fn).tolist() == scalar
        assert scalar == [AccuracyReport(*triple).f_score for triple in triples]

    def test_zero_denominators_score_zero(self):
        zeros = np.zeros(3, dtype=np.int64)
        assert f_scores_of_counts(zeros, np.array([0, 2, 0]), np.array([0, 0, 3])).tolist() == [
            0.0, 0.0, 0.0
        ]


class TestAccuracyReport:
    def test_precision_recall(self):
        report = AccuracyReport(true_positives=8, false_positives=2, false_negatives=4)
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(8 / 12)

    def test_empty_report_is_zero(self):
        report = AccuracyReport(0, 0, 0)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f_score == 0.0

    def test_merged(self):
        left = AccuracyReport(1, 2, 3)
        right = AccuracyReport(4, 5, 6)
        merged = left.merged(right)
        assert (merged.true_positives, merged.false_positives, merged.false_negatives) == (5, 7, 9)

    def test_aggregate_reports(self):
        total = aggregate_reports([AccuracyReport(1, 0, 0), AccuracyReport(0, 1, 1)])
        assert total.true_positives == 1
        assert total.false_positives == 1
        assert total.false_negatives == 1


class TestEvaluateDetections:
    def test_exact_match_is_perfect(self):
        truth = make_label_set(0, make_detection("person", x=100))
        report = evaluate_detections(truth, truth)
        assert report.f_score == 1.0

    def test_wrong_name_is_false_positive_and_negative(self):
        observed = make_label_set(0, make_detection("dog", x=100))
        truth = make_label_set(0, make_detection("cat", x=100))
        report = evaluate_detections(observed, truth)
        assert report.true_positives == 0
        assert report.false_positives == 1
        assert report.false_negatives == 1

    def test_missed_object_is_false_negative(self):
        observed = make_label_set(0)
        truth = make_label_set(0, make_detection("person"))
        report = evaluate_detections(observed, truth)
        assert report.false_negatives == 1
        assert report.false_positives == 0

    def test_hallucination_is_false_positive(self):
        observed = make_label_set(0, make_detection("person", x=100), make_detection("person", x=700))
        truth = make_label_set(0, make_detection("person", x=100))
        report = evaluate_detections(observed, truth)
        assert report.true_positives == 1
        assert report.false_positives == 1

    def test_each_truth_label_claimed_once(self):
        """Two overlapping predictions of the same object: only one TP."""
        observed = make_label_set(
            0, make_detection("person", x=100), make_detection("person", x=103)
        )
        truth = make_label_set(0, make_detection("person", x=100))
        report = evaluate_detections(observed, truth)
        assert report.true_positives == 1
        assert report.false_positives == 1

    def test_predictions_claim_truth_labels_greedily_in_order(self):
        """A prediction takes the *first* unclaimed same-name truth label it
        overlaps, not the best one — so order decides who is left over."""
        left = make_detection("person", x=100, size=50)
        right = make_detection("person", x=130, size=50)
        truth = make_label_set(0, left, right)
        straddling = make_detection("person", x=115, size=50)  # overlaps both
        only_left = make_detection("person", x=70, size=50)  # overlaps `left` alone
        # `straddling` goes first and takes `left`; nothing remains for `only_left`.
        report = evaluate_detections(make_label_set(0, straddling, only_left), truth)
        assert (report.true_positives, report.false_positives, report.false_negatives) == (1, 1, 1)
        # The other way round both find a truth label.
        report = evaluate_detections(make_label_set(0, only_left, straddling), truth)
        assert (report.true_positives, report.false_positives, report.false_negatives) == (2, 0, 0)

    def test_overlap_threshold(self):
        observed = make_label_set(0, make_detection("person", x=100, size=50))
        truth = make_label_set(0, make_detection("person", x=145, size=50))
        strict = evaluate_detections(observed, truth, min_overlap=0.5)
        assert strict.true_positives == 0
        loose = evaluate_detections(observed, truth, min_overlap=0.05)
        assert loose.true_positives == 1
