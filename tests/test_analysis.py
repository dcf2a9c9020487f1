"""Tests for result tabulation and threshold sweeps."""

import pytest

from repro.analysis.sweeps import sweep_thresholds
from repro.analysis.tables import LATENCY_BREAKDOWN_HEADERS, format_table, latency_breakdown_row
from repro.analysis.timeline import (
    availability_timeline,
    batch_flush_profile,
    cloud_queue_profile,
    migration_timeline,
    stage_commit_counts,
)
from repro.core.config import CroesusConfig
from repro.core.optimizer import ThresholdEvaluator
from repro.core.results import LatencyBreakdown
from repro.sim.events import EventLog, EventsNotRetained


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
        best = sweep.best_feasible(0.5)
        if best is not None:
            assert best.f_score >= 0.5
        assert sweep.best_feasible(1.01) is None

    def test_grid_values_sorted(self, sweep):
        values = sweep.grid_values()
        assert values == sorted(values)


class TestTimeline:
    def make_log(self):
        log = EventLog()
        log.record(1.0, "cloud_validate", frame_id=0, queue_delay=0.0)
        log.record(2.0, "cloud_validate", frame_id=1, queue_delay=0.5)
        log.record(3.0, "cloud_validate", frame_id=2, queue_delay=1.5)
        log.record(2.5, "stream_migrated", stream="cam0", from_edge=0, to_edge=1)
        log.record(4.0, "stream_migrated", stream="cam1", from_edge=0, to_edge=2)
        log.record(0.5, "initial_commit", frame_id=0)
        log.record(5.0, "final_commit", frame_id=0)
        return log

    def test_cloud_queue_profile(self):
        profile = cloud_queue_profile(self.make_log())
        assert profile.validations == 3
        assert profile.queued == 2
        assert profile.mean_delay == pytest.approx(2.0 / 3)
        assert profile.max_delay == pytest.approx(1.5)
        assert profile.queued_fraction == pytest.approx(2 / 3)

    def test_cloud_queue_profile_of_empty_log(self):
        profile = cloud_queue_profile(EventLog())
        assert profile.validations == 0
        assert profile.mean_delay == 0.0
        assert profile.queued_fraction == 0.0

    def test_migration_timeline(self):
        timeline = migration_timeline(self.make_log())
        assert timeline.count == 2
        assert timeline.streams_moved == {"cam0", "cam1"}
        assert timeline.moves_off(0) == 2
        assert timeline.moves_off(1) == 0
        assert timeline.moves[0] == (2.5, "cam0", 0, 1)

    def test_stage_commit_counts(self):
        counts = stage_commit_counts(self.make_log())
        assert counts == {"initial": 1, "final": 1}

    def test_a_count_only_log_refuses_the_reductions_that_need_events(self):
        log = EventLog(capacity=0)
        log.record(1.0, "cloud_validate", frame_id=0, queue_delay=0.5)
        log.bump("initial_commit")
        for reduction in (cloud_queue_profile, migration_timeline, batch_flush_profile):
            with pytest.raises(EventsNotRetained):
                reduction(log)
        assert stage_commit_counts(log) == {"initial": 1, "final": 0}

    def test_batch_flush_profile(self):
        log = EventLog()
        log.record(1.0, "txn_batch_flush", edge=0, transactions=3, participants=2, duration=0.01)
        log.record(2.0, "txn_batch_flush", edge=1, transactions=5, participants=3, duration=0.03)
        profile = batch_flush_profile(log)
        assert profile.flushes == 2
        assert profile.transactions == 8
        assert profile.transactions_per_flush == pytest.approx(4.0)
        assert profile.mean_duration == pytest.approx(0.02)
        assert profile.max_participants == 3

    def test_batch_flush_profile_of_empty_log(self):
        profile = batch_flush_profile(EventLog())
        assert profile.flushes == 0
        assert profile.transactions_per_flush == 0.0

    def test_availability_timeline_pairs_cycles(self):
        log = EventLog()
        log.record(1.0, "edge_failed", edge=1, streams_migrated=2, txns_aborted=3)
        log.record(2.5, "edge_recovered", edge=1, records_replayed=7)
        log.record(4.0, "edge_failed", edge=0, streams_migrated=1, txns_aborted=0)
        log.record(0.5, "checkpoint", partitions=4, keys=10)
        timeline = availability_timeline(log)
        assert timeline.count == 2
        assert timeline.cycles[0] == (1, 1.0, 2.5, 7)
        assert timeline.cycles[1] == (0, 4.0, None, 0)  # run ended mid-outage
        assert timeline.total_downtime == pytest.approx(1.5)
        assert timeline.downtime_of(1) == pytest.approx(1.5)
        assert timeline.downtime_of(0) == 0.0
        assert timeline.checkpoints == 1
