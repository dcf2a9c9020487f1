"""Parameter sweeps over threshold pairs (Figure 3 / Figure 5).

:class:`ThresholdSweep` is the fast threshold-only grid: it scores pairs
against one profiled video without re-running any detector, which is why
the optimiser and the heatmap benchmarks use it.  For sweeps over *any*
scenario field — cluster sizes, routers, cloud capacity, or thresholds
across full end-to-end runs — use the generalised
:class:`repro.experiments.Sweep`, which shares the heatmap/series
accessor style introduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.optimizer import ThresholdEvaluator, ThresholdScore

#: Decimal places threshold grid values are rounded to for indexing;
#: matches the evaluator's own cache-key rounding.
_GRID_DECIMALS = 6


@dataclass(frozen=True)
class ThresholdSweep:
    """All scores of a grid sweep, with heatmap accessors."""

    step: float
    scores: tuple[ThresholdScore, ...]

    @cached_property
    def _index(self) -> dict[tuple[float, float], ThresholdScore]:
        """Scores keyed by rounded (lower, upper), so lookups are O(1)."""
        return {
            (round(score.lower, _GRID_DECIMALS), round(score.upper, _GRID_DECIMALS)): score
            for score in self.scores
        }

    def grid_values(self) -> list[float]:
        """Sorted distinct threshold values in the sweep."""
        values = sorted({score.lower for score in self.scores} | {score.upper for score in self.scores})
        return values

    def score_at(self, lower: float, upper: float) -> ThresholdScore | None:
        """Score of one pair, or None when the pair was not in the sweep."""
        return self._index.get(
            (round(lower, _GRID_DECIMALS), round(upper, _GRID_DECIMALS))
        )

    def heatmap(self, metric: str) -> dict[tuple[float, float], float]:
        """Mapping of (θL, θU) to a metric (``"bu"`` or ``"f_score"``)."""
        if metric not in {"bu", "f_score"}:
            raise ValueError("metric must be 'bu' or 'f_score'")
        result: dict[tuple[float, float], float] = {}
        for score in self.scores:
            value = score.bandwidth_utilization if metric == "bu" else score.f_score
            result[(score.lower, score.upper)] = value
        return result


def sweep_thresholds(evaluator: ThresholdEvaluator, step: float = 0.1) -> ThresholdSweep:
    """Score every grid pair and return the sweep."""
    return ThresholdSweep(step=step, scores=tuple(evaluator.evaluate_grid(step=step)))
