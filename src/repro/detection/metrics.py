"""Accuracy metrics: precision, recall and F-score.

The paper measures accuracy as the F-score of what the *client observes*
against the ground truth (which the paper takes to be YOLOv3's output).
A client observation is the edge label unless the frame was validated by
the cloud, in which case the corrected label counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.labels import LabelSet
from repro.detection.matching import FrameOverlaps


@dataclass(frozen=True, slots=True)
class AccuracyReport:
    """Precision / recall / F-score over a set of frames."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f_score(self) -> float:
        return f_score(self.precision, self.recall)

    def merged(self, other: "AccuracyReport") -> "AccuracyReport":
        """Combine counts from two reports."""
        return AccuracyReport(
            true_positives=self.true_positives + other.true_positives,
            false_positives=self.false_positives + other.false_positives,
            false_negatives=self.false_negatives + other.false_negatives,
        )


def f_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_score_of_counts(tp: int, fp: int, fn: int) -> float:
    """``AccuracyReport(tp, fp, fn).f_score``, term for term, without the report."""
    return f_score(tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0)


def f_scores_of_counts(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """:func:`f_score_of_counts` over int64 arrays, operand for operand.

    int64 -> float64 is exact for any count a run can reach and every
    step is the scalar's IEEE operation in the scalar's order, so each
    element is bit-identical to the scalar function's result.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tp + fp, tp / (tp + fp), 0.0)
        recall = np.where(tp + fn, tp / (tp + fn), 0.0)
        return np.where(
            precision + recall == 0.0, 0.0, 2.0 * precision * recall / (precision + recall)
        )


#: Shared zero report for frames with no predictions and no truth labels.
#: AccuracyReport is frozen, so one instance can serve every such frame.
_EMPTY_REPORT = AccuracyReport(0, 0, 0)


def score_of_empty_view(truth: LabelSet) -> AccuracyReport:
    """The score of a view that shows nothing: every truth label missed."""
    truth_count = len(truth)
    return _EMPTY_REPORT if truth_count == 0 else AccuracyReport(0, 0, truth_count)


def evaluate_detections(
    observed: LabelSet,
    truth: LabelSet,
    min_overlap: float = 0.10,
) -> AccuracyReport:
    """Score observed labels against ground-truth labels for one frame.

    A prediction counts as a true positive when some unclaimed truth label
    overlaps it by at least ``min_overlap`` and carries the same name —
    the same 10%-overlap rule the paper uses for its F-score, stated once
    in :mod:`repro.detection.matching`.
    """
    if not observed.detections:
        return score_of_empty_view(truth)
    overlaps = FrameOverlaps(observed.detections, truth.detections, min_overlap)
    return AccuracyReport(*overlaps.client_view(range(len(observed)), sent=False)[1])


def aggregate_reports(reports: list[AccuracyReport]) -> AccuracyReport:
    """Sum a list of per-frame reports into one corpus-level report."""
    total = AccuracyReport(0, 0, 0)
    for report in reports:
        total = total.merged(report)
    return total
