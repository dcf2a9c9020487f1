"""Tests for latency breakdowns and run results."""

import pytest

from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.detection.metrics import AccuracyReport

from helpers import make_label_set, run_summary


def _trace(frame_id: int, sent: bool, f_tp: int = 1, f_fp: int = 0, f_fn: int = 0) -> FrameTrace:
    latency = LatencyBreakdown(
        edge_transfer=0.01,
        edge_detection=0.2,
        initial_txn=0.001,
        cloud_transfer=0.05 if sent else 0.0,
        cloud_detection=1.0 if sent else 0.0,
        final_txn=0.001,
    )
    return FrameTrace.from_labels(
        frame_id=frame_id,
        edge_labels=make_label_set(frame_id),
        cloud_labels=make_label_set(frame_id),
        observed_labels=make_label_set(frame_id),
        sent_to_cloud=sent,
        latency=latency,
        accuracy=AccuracyReport(f_tp, f_fp, f_fn),
        transactions_triggered=2,
        corrections=1 if sent else 0,
        apologies=1 if sent else 0,
        frame_bytes_sent=250_000 if sent else 0,
    )


class TestLatencyBreakdown:
    def test_initial_latency_components(self):
        breakdown = LatencyBreakdown(edge_transfer=0.01, edge_detection=0.2, initial_txn=0.002)
        assert breakdown.initial_latency == pytest.approx(0.212)

    def test_final_latency_includes_cloud(self):
        breakdown = LatencyBreakdown(
            edge_transfer=0.01,
            edge_detection=0.2,
            initial_txn=0.002,
            cloud_transfer=0.06,
            cloud_detection=1.1,
            final_txn=0.001,
        )
        assert breakdown.final_latency == pytest.approx(1.373)
        assert breakdown.cloud_total == pytest.approx(1.16)

    def test_average(self):
        a = LatencyBreakdown(edge_detection=0.2)
        b = LatencyBreakdown(edge_detection=0.4)
        assert LatencyBreakdown.average([a, b]).edge_detection == pytest.approx(0.3)

    def test_average_of_empty_list(self):
        assert LatencyBreakdown.average([]).final_latency == 0.0

    def test_scaled(self):
        breakdown = LatencyBreakdown(edge_detection=0.2, cloud_detection=1.0)
        scaled = breakdown.scaled(2.0)
        assert scaled.edge_detection == pytest.approx(0.4)
        assert scaled.cloud_detection == pytest.approx(2.0)


class TestRunResult:
    def test_bandwidth_utilization(self):
        run = RunResult("croesus", "v1", [_trace(0, True), _trace(1, False), _trace(2, False)])
        assert run.bandwidth_utilization == pytest.approx(1 / 3)

    def test_empty_run(self):
        run = RunResult("croesus", "v1")
        assert run.bandwidth_utilization == 0.0
        assert run.f_score == 0.0
        assert run.average_initial_latency == 0.0
        assert run.average_final_latency == 0.0

    def test_accuracy_aggregates_frames(self):
        run = RunResult(
            "croesus", "v1", [_trace(0, True, f_tp=1, f_fp=1), _trace(1, False, f_tp=1, f_fn=1)]
        )
        accuracy = run.accuracy
        assert accuracy.true_positives == 2
        assert accuracy.false_positives == 1
        assert accuracy.false_negatives == 1

    def test_latency_averages(self):
        run = RunResult("croesus", "v1", [_trace(0, True), _trace(1, False)])
        assert run.average_initial_latency == pytest.approx(0.211)
        # one frame pays the cloud round trip, the other does not
        assert run.average_final_latency == pytest.approx((1.262 + 0.212) / 2)

    def test_counters(self):
        run = RunResult("croesus", "v1", [_trace(0, True), _trace(1, False)])
        assert run.total_transactions == 4
        assert run.total_corrections == 1
        assert run.total_apologies == 1

    def test_summary_keys(self):
        run = RunResult("croesus", "v1", [_trace(0, True)])
        summary = run_summary(run)
        assert {"frames", "bandwidth_utilization", "f_score", "initial_latency_ms", "final_latency_ms"} <= set(summary)

    def test_add_appends_trace(self):
        run = RunResult("croesus", "v1")
        run.add(_trace(0, False))
        assert run.num_frames == 1


class TestCloudQueueDelay:
    def test_final_latency_includes_cloud_queue_delay(self):
        plain = LatencyBreakdown(cloud_transfer=0.5, cloud_detection=0.4)
        queued = LatencyBreakdown(cloud_transfer=0.5, cloud_detection=0.4, cloud_queue_delay=0.3)
        assert queued.final_latency == pytest.approx(plain.final_latency + 0.3)
        assert queued.cloud_total == pytest.approx(1.2)
        assert queued.initial_latency == plain.initial_latency

    def test_scaled_and_average_carry_cloud_queue_delay(self):
        breakdown = LatencyBreakdown(cloud_queue_delay=0.4)
        assert breakdown.scaled(2.0).cloud_queue_delay == pytest.approx(0.8)
        averaged = LatencyBreakdown.average(
            [LatencyBreakdown(cloud_queue_delay=0.2), LatencyBreakdown(cloud_queue_delay=0.6)]
        )
        assert averaged.cloud_queue_delay == pytest.approx(0.4)
