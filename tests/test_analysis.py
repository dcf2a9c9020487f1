"""Tests for result tabulation and threshold sweeps."""

import pytest

from repro.analysis.sweeps import sweep_thresholds
from repro.analysis.tables import LATENCY_BREAKDOWN_HEADERS, format_table, latency_breakdown_row
from repro.core.config import CroesusConfig
from repro.core.optimizer import ThresholdEvaluator, brute_force_search
from repro.core.results import LatencyBreakdown

from helpers import best_feasible


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        table = format_table(["name", "value"], [["a", 1.0], ["b", 2.5]])
        assert "name" in table
        assert "a" in table
        assert "2.500" in table

    def test_column_alignment(self):
        table = format_table(["x"], [["longer-cell"], ["s"]])
        lines = table.splitlines()
        assert len({len(line.rstrip()) for line in lines if line.strip()}) <= 2

    def test_latency_breakdown_row(self):
        breakdown = LatencyBreakdown(edge_detection=0.2, cloud_detection=1.0)
        row = latency_breakdown_row("croesus", breakdown)
        assert row[0] == "croesus"
        assert row[2] == pytest.approx(200.0)
        assert len(row) == len(LATENCY_BREAKDOWN_HEADERS)


class TestThresholdSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        evaluator = ThresholdEvaluator.profile(CroesusConfig(seed=8), "v2", num_frames=40)
        return sweep_thresholds(evaluator, step=0.2)

    def test_scores_cover_grid(self, sweep):
        assert len(sweep.scores) == 15  # 5 grid values -> 5+4+3+2+1 pairs

    def test_score_lookup(self, sweep):
        assert sweep.score_at(0.2, 0.4) is not None
        assert sweep.score_at(0.11, 0.42) is None

    def test_heatmap_metrics(self, sweep):
        bu = sweep.heatmap("bu")
        f1 = sweep.heatmap("f_score")
        assert set(bu) == set(f1)
        assert all(0.0 <= value <= 1.0 for value in bu.values())

    def test_heatmap_invalid_metric(self, sweep):
        with pytest.raises(ValueError):
            sweep.heatmap("latency")

    def test_best_feasible(self, sweep):
        best = best_feasible(sweep, 0.5)
        if best is not None:
            assert best.f_score >= 0.5
        assert best_feasible(sweep, 1.01) is None

    def test_best_feasible_is_the_search_optimum_on_ties(self):
        """(0.0, 0.0) and (0.1, 0.1) both send nothing, at one latency;
        the higher F-score breaks the tie, as in the searches (the first
        grid pair used to win)."""
        evaluator = ThresholdEvaluator.profile(CroesusConfig(seed=4), "v1", num_frames=40)
        best = best_feasible(sweep_thresholds(evaluator, step=0.1), 0.6)
        first = evaluator.evaluate(0.0, 0.0)
        assert (first.bandwidth_utilization, first.average_final_latency) == (
            best.bandwidth_utilization, best.average_final_latency
        )
        assert first.f_score < best.f_score
        assert best.pair == (0.1, 0.1)
        assert best == brute_force_search(evaluator, 0.6, step=0.1).best

    def test_grid_values_sorted(self, sweep):
        values = sweep.grid_values()
        assert values == sorted(values)

