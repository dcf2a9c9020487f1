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

from repro.core.optimizer import ThresholdEvaluator, ThresholdScore


@dataclass(frozen=True)
class ThresholdSweep:
    """All scores of a grid sweep, with heatmap accessors."""

    step: float
    scores: tuple[ThresholdScore, ...]

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
