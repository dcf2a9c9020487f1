"""Tests for the threshold evaluator and the two search strategies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import CroesusConfig
from repro.core.optimizer import (
    ThresholdEvaluator,
    ThresholdScore,
    brute_force_search,
    gradient_step_search,
    select_best,
)


@pytest.fixture(scope="module")
def evaluator() -> ThresholdEvaluator:
    """A profiled evaluator shared by the module's tests (profiling once)."""
    config = CroesusConfig(seed=4)
    return ThresholdEvaluator.profile(config, "v1", num_frames=50)


class TestThresholdEvaluator:
    def test_requires_traces(self):
        """An evaluator may start empty (the retune controller grows it),
        but it cannot score a pair before it holds a frame."""
        empty = ThresholdEvaluator([])
        assert empty.num_frames == 0
        with pytest.raises(ValueError, match="without any frame traces"):
            empty.evaluate(0.3, 0.7)

    def test_evaluate_returns_metrics_in_range(self, evaluator):
        score = evaluator.evaluate(0.3, 0.7)
        assert 0.0 <= score.bandwidth_utilization <= 1.0
        assert 0.0 <= score.f_score <= 1.0
        assert score.average_initial_latency > 0
        assert score.average_final_latency >= score.average_initial_latency

    def test_empty_interval_means_zero_bandwidth(self, evaluator):
        score = evaluator.evaluate(0.0, 0.0)
        assert score.bandwidth_utilization <= 0.05

    def test_full_interval_means_high_bandwidth(self, evaluator):
        score = evaluator.evaluate(0.0, 0.95)
        assert score.bandwidth_utilization > 0.5

    def test_results_are_cached(self, evaluator):
        first = evaluator.evaluate(0.2, 0.6)
        second = evaluator.evaluate(0.2, 0.6)
        assert first is second

    def test_wider_interval_does_not_reduce_bandwidth(self, evaluator):
        narrow = evaluator.evaluate(0.4, 0.5)
        wide = evaluator.evaluate(0.2, 0.8)
        assert wide.bandwidth_utilization >= narrow.bandwidth_utilization

    def test_grid_covers_lower_triangle(self, evaluator):
        scores = evaluator.evaluate_grid(step=0.25)
        assert all(score.lower <= score.upper for score in scores)
        assert len(scores) == 10  # 4 grid values -> 4+3+2+1 pairs


class TestBruteForceSearch:
    def test_respects_f_score_floor_when_feasible(self, evaluator):
        result = brute_force_search(evaluator, target_f_score=0.7)
        assert result.feasible
        assert result.best.f_score >= 0.7

    def test_minimizes_bandwidth_among_feasible(self, evaluator):
        result = brute_force_search(evaluator, target_f_score=0.7)
        feasible = [s for s in result.scores if s.f_score >= 0.7]
        assert result.best.bandwidth_utilization == min(
            s.bandwidth_utilization for s in feasible
        )

    def test_infeasible_target_returns_best_effort(self, evaluator):
        result = brute_force_search(evaluator, target_f_score=1.01)
        assert not result.feasible
        assert result.best.f_score == max(s.f_score for s in result.scores)

    def test_evaluation_count_matches_grid(self, evaluator):
        result = brute_force_search(evaluator, target_f_score=0.7, step=0.2)
        assert result.evaluations == len(result.scores)


#: Few distinct values per field, so ties on every key of the rule occur.
_coarse = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_scores = st.lists(
    st.builds(ThresholdScore, _coarse, _coarse, _coarse, _coarse, _coarse, st.just(0.1)),
    min_size=1,
    max_size=30,
)


class TestSelectionRule:
    @given(_scores, st.sampled_from([0.0, 0.5, 0.75, 1.01]))
    def test_is_the_rule_as_first_written(self, scores, target):
        """Least bandwidth among the feasible pairs, then latency, then
        the higher F-score, then list order; infeasible: the first pair of
        the highest F-score — the same *object* the plain min / max picks."""
        feasible = [score for score in scores if score.f_score >= target]
        if feasible:
            expected = min(
                feasible,
                key=lambda s: (s.bandwidth_utilization, s.average_final_latency, -s.f_score),
            )
        else:
            expected = max(scores, key=lambda s: s.f_score)
        assert select_best(scores, target) is expected


class TestGradientStepSearch:
    def test_finds_feasible_pair(self, evaluator):
        result = gradient_step_search(evaluator, target_f_score=0.7)
        assert result.feasible
        assert result.best.f_score >= 0.7

    def test_uses_fewer_evaluations_than_brute_force(self, evaluator):
        brute = brute_force_search(evaluator, target_f_score=0.8)
        gradient = gradient_step_search(evaluator, target_f_score=0.8)
        assert gradient.evaluations < brute.evaluations

    def test_result_close_to_brute_force_bandwidth(self, evaluator):
        """The gradient search is a heuristic: its BU should be in the same
        ballpark as the exhaustive optimum (paper reports both stars in the
        same region of the heatmap)."""
        brute = brute_force_search(evaluator, target_f_score=0.8)
        gradient = gradient_step_search(evaluator, target_f_score=0.8)
        assert gradient.best.bandwidth_utilization <= 1.0
        assert gradient.best.bandwidth_utilization >= brute.best.bandwidth_utilization

    def test_infeasible_target_reported(self, evaluator):
        result = gradient_step_search(evaluator, target_f_score=1.01)
        assert not result.feasible
