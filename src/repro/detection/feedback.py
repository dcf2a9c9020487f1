"""Edge-model feedback from cloud corrections.

The paper notes (footnote 1) that in a real application the corrected
information would also influence the small model — via retraining and
heuristics such as smoothing — so that an error is not repeated on the
following frames.  Retraining a CNN is out of scope for the simulation,
but the two lightweight heuristics are implemented here:

* :class:`CorrectionMemory` — per-class reliability statistics learned
  from the cloud's verdicts (confirmed / corrected / spurious), used to
  re-weight edge confidences and to substitute a label the cloud keeps
  correcting to a different class.
* :class:`TemporalSmoother` — per-object majority voting over a sliding
  window of recent frames, which suppresses one-frame flickers in the
  edge labels.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import MatchOutcome, MatchReport


@dataclass
class ClassStats:
    """Outcome counts for one edge label class."""

    confirmed: int = 0
    corrected: int = 0
    spurious: int = 0
    corrections_to: dict[str, int] = field(default_factory=dict)

    @property
    def observations(self) -> int:
        return self.confirmed + self.corrected + self.spurious

    @property
    def reliability(self) -> float:
        """Fraction of this class's edge detections the cloud confirmed."""
        if self.observations == 0:
            return 1.0
        return self.confirmed / self.observations

    def most_common_correction(self) -> str | None:
        """The class the cloud most often corrects this class to."""
        if not self.corrections_to:
            return None
        return max(self.corrections_to, key=self.corrections_to.get)


class CorrectionMemory:
    """Learns per-class reliability from cloud match reports.

    Parameters
    ----------
    min_observations:
        Number of cloud verdicts needed for a class before its statistics
        influence the edge labels.
    substitution_threshold:
        If more than this fraction of a class's corrections point at the
        same other class, edge detections of the class are relabelled to
        that class.
    """

    def __init__(self, min_observations: int = 5, substitution_threshold: float = 0.6) -> None:
        if min_observations < 1:
            raise ValueError("min_observations must be at least 1")
        if not 0.0 < substitution_threshold <= 1.0:
            raise ValueError("substitution_threshold must be in (0, 1]")
        self._min_observations = min_observations
        self._substitution_threshold = substitution_threshold
        self._stats: dict[str, ClassStats] = defaultdict(ClassStats)

    def observe(self, report: MatchReport) -> None:
        """Update the statistics with one frame's cloud verdicts."""
        for match in report.matches:
            stats = self._stats[match.edge.name]
            if match.outcome is MatchOutcome.CONFIRMED:
                stats.confirmed += 1
            elif match.outcome is MatchOutcome.CORRECTED:
                stats.corrected += 1
                corrected_name = match.cloud.name if match.cloud is not None else "unknown"
                stats.corrections_to[corrected_name] = (
                    stats.corrections_to.get(corrected_name, 0) + 1
                )
            else:
                stats.spurious += 1

    def stats_for(self, name: str) -> ClassStats:
        """Statistics collected for one class (empty stats when unseen)."""
        return self._stats.get(name, ClassStats())

    def reliability(self, name: str) -> float:
        """Learned reliability of a class (1.0 before enough observations)."""
        stats = self.stats_for(name)
        if stats.observations < self._min_observations:
            return 1.0
        return stats.reliability

    def adjust(self, labels: LabelSet) -> LabelSet:
        """Apply the learned feedback to a fresh set of edge labels.

        Confidences are scaled towards the class's learned reliability,
        and classes that are overwhelmingly corrected to another class are
        relabelled (a cheap stand-in for retraining the edge model).
        """
        adjusted: list[Detection] = []
        for detection in labels:
            stats = self.stats_for(detection.name)
            updated = detection
            if stats.observations >= self._min_observations:
                reliability = stats.reliability
                blended = detection.confidence * (0.5 + 0.5 * reliability)
                updated = updated.with_confidence(max(0.01, min(blended, 0.999)))
                substitute = stats.most_common_correction()
                if (
                    substitute is not None
                    and stats.corrected / stats.observations >= self._substitution_threshold
                ):
                    updated = updated.with_name(substitute)
            adjusted.append(updated)
        return LabelSet(labels.frame_id, tuple(adjusted), labels.model_name)


class TemporalSmoother:
    """Majority-vote smoothing of per-object labels over recent frames."""

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self._window = window
        self._history: dict[int, deque[str]] = defaultdict(lambda: deque(maxlen=window))

    def smooth(self, labels: LabelSet) -> LabelSet:
        """Replace each tracked object's label with its recent majority.

        Detections without an object id (hallucinations) pass through
        unchanged — there is nothing to track.
        """
        smoothed: list[Detection] = []
        for detection in labels:
            if detection.object_id is None:
                smoothed.append(detection)
                continue
            history = self._history[detection.object_id]
            history.append(detection.name)
            # Ties go to the label seen earliest in the window (a set of
            # names would order them by PYTHONHASHSEED).
            names = list(history)
            majority = max(dict.fromkeys(names), key=names.count)
            smoothed.append(detection.with_name(majority))
        return LabelSet(labels.frame_id, tuple(smoothed), labels.model_name)
