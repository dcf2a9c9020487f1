"""Bandwidth thresholding (paper Section 3.4).

A detection's confidence falls into one of three intervals:

* ``DISCARD``  — below θL: likely a false positive, dropped.
* ``VALIDATE`` — between θL and θU: plausible but unreliable, the frame
  is sent to the cloud for validation.
* ``KEEP``     — above θU: trusted, not validated.

A frame is sent to the cloud when at least one of its detections falls in
the validate interval; bandwidth utilisation (BU) is the fraction of
frames sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from repro.detection.labels import Detection, LabelSet


class ConfidenceInterval(Enum):
    """Which of the three thresholding intervals a confidence falls in."""

    DISCARD = "discard"
    VALIDATE = "validate"
    KEEP = "keep"


@dataclass(frozen=True)
class ThresholdPolicy:
    """The ``(θL, θU)`` policy of Section 3.4."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"thresholds must satisfy 0 <= θL <= θU <= 1, got ({self.lower}, {self.upper})"
            )

    def classify(self, confidence: float) -> ConfidenceInterval:
        """Interval for one confidence value.

        Following the paper's formulation, the validate interval is the
        closed range ``[θL, θU]``; confidences strictly below θL are
        discarded and strictly above θU are kept.
        """
        if confidence < self.lower:
            return ConfidenceInterval.DISCARD
        if confidence > self.upper:
            return ConfidenceInterval.KEEP
        return ConfidenceInterval.VALIDATE

    def classify_labels(self, labels: LabelSet) -> dict[ConfidenceInterval, list[Detection]]:
        """Partition a label set by interval."""
        partition: dict[ConfidenceInterval, list[Detection]] = {
            ConfidenceInterval.DISCARD: [],
            ConfidenceInterval.VALIDATE: [],
            ConfidenceInterval.KEEP: [],
        }
        for detection in labels:
            partition[self.classify(detection.confidence)].append(detection)
        return partition

    def partition(self, labels: LabelSet) -> tuple[Sequence[int], bool]:
        """Surviving rows and the sent bit from ONE pass over a frame's labels.

        The rows index ``labels.detections`` (validate + keep, in
        detection order); the frame is sent when any of them falls in the
        validate interval.  Same decisions as :meth:`surviving_labels` +
        :meth:`should_validate`, each confidence classified once.
        """
        detections = labels.detections
        if not detections:
            # A frame body holds its rows across its cloud wait: an empty
            # frame shares the empty tuple instead of owning a list.
            return (), False
        lower, upper = self.lower, self.upper
        rows: list[int] = []
        sent = False
        for row, detection in enumerate(detections):
            confidence = detection.confidence
            if confidence < lower:
                continue
            rows.append(row)
            if confidence <= upper:
                sent = True
        return rows, sent

    def should_validate(self, labels: Iterable[Detection]) -> bool:
        """Whether a frame with these detections must be sent to the cloud."""
        # A plain loop rather than any(genexpr): no generator object per
        # call on a path that runs once per simulated frame.
        for detection in labels:
            if self.classify(detection.confidence) is ConfidenceInterval.VALIDATE:
                return True
        return False

    def surviving_labels(self, labels: LabelSet) -> LabelSet:
        """Labels that remain relevant to the client (validate + keep)."""
        if not labels.detections:
            return labels
        kept = tuple(
            detection
            for detection in labels
            if self.classify(detection.confidence) is not ConfidenceInterval.DISCARD
        )
        return LabelSet(labels.frame_id, kept, labels.model_name)

    @property
    def validate_width(self) -> float:
        """Width of the validate interval."""
        return self.upper - self.lower

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)
