"""Tests for the end-to-end Croesus pipeline."""

import pytest

from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.client import Client
from repro.core.system import CroesusSystem
from repro.network.topology import EdgeCloudTopology
from repro.transactions.checker import check_ms_ia
from repro.video.library import make_video

from helpers import run_summary


def _run(config: CroesusConfig, video_key: str = "v1", num_frames: int = 25):
    system = CroesusSystem(config)
    video = make_video(video_key, num_frames=num_frames, seed=config.seed)
    return system, system.run(video)


class TestCroesusSystem:
    def test_processes_every_frame(self):
        _, result = _run(CroesusConfig(seed=3), num_frames=20)
        assert result.num_frames == 20
        assert [t.frame_id for t in result.traces] == list(range(20))

    def test_full_validation_sends_every_detected_frame(self):
        config = CroesusConfig(seed=3, lower_threshold=0.0, upper_threshold=0.999)
        _, result = _run(config)
        frames_with_detections = [t for t in result.traces if len(t.edge_labels) > 0]
        assert all(t.sent_to_cloud for t in frames_with_detections)

    def test_empty_validate_interval_never_sends(self):
        config = CroesusConfig(seed=3, lower_threshold=0.0, upper_threshold=0.0)
        _, result = _run(config)
        assert result.bandwidth_utilization == pytest.approx(0.0, abs=0.05)

    def test_wider_interval_increases_bandwidth(self):
        narrow = _run(CroesusConfig(seed=3, lower_threshold=0.45, upper_threshold=0.55))[1]
        wide = _run(CroesusConfig(seed=3, lower_threshold=0.1, upper_threshold=0.9))[1]
        assert wide.bandwidth_utilization >= narrow.bandwidth_utilization

    def test_validation_improves_accuracy(self):
        """Sending frames to the cloud must not hurt the observed F-score."""
        never = _run(CroesusConfig(seed=5, lower_threshold=0.0, upper_threshold=0.0), num_frames=40)[1]
        always = _run(CroesusConfig(seed=5, lower_threshold=0.0, upper_threshold=0.999), num_frames=40)[1]
        assert always.f_score > never.f_score

    def test_initial_latency_much_smaller_than_final_for_validated_frames(self):
        config = CroesusConfig(seed=3, lower_threshold=0.0, upper_threshold=0.999)
        _, result = _run(config)
        sent = [t for t in result.traces if t.sent_to_cloud]
        assert sent
        for trace in sent:
            assert trace.latency.final_latency > trace.latency.initial_latency + 0.5

    def test_initial_latency_dominated_by_edge_detection(self):
        _, result = _run(CroesusConfig(seed=3))
        breakdown = result.average_latency
        assert breakdown.edge_detection > breakdown.edge_transfer
        assert breakdown.initial_txn < 0.01

    def test_transactions_triggered_for_detections(self):
        _, result = _run(CroesusConfig(seed=3), num_frames=40)
        assert result.total_transactions > 0

    def test_client_receives_initial_and_final_responses(self):
        config = CroesusConfig(seed=3)
        system = CroesusSystem(config)
        video = make_video("v1", num_frames=10, seed=3)
        client = Client(video)
        system.run(video, client=client)
        stages = {response.stage for response in client.responses}
        assert stages == {"initial", "final"}

    def test_history_satisfies_ms_ia(self):
        config = CroesusConfig(seed=3)
        system, _ = _run(config, num_frames=30)
        assert len(system.history) > 0
        assert check_ms_ia(system.history)

    def test_ms_sr_mode_runs(self):
        config = CroesusConfig(seed=3, consistency=ConsistencyLevel.MS_SR)
        system, result = _run(config, num_frames=20)
        assert result.num_frames == 20
        from repro.transactions.ms_sr import TwoStage2PL

        assert isinstance(system.edge.controller, TwoStage2PL)

    def test_same_seed_reproduces_run(self):
        first = _run(CroesusConfig(seed=11), num_frames=15)[1]
        second = _run(CroesusConfig(seed=11), num_frames=15)[1]
        assert run_summary(first) == run_summary(second)

    def test_same_location_topology_is_faster(self):
        far = CroesusConfig(
            seed=3,
            lower_threshold=0.0,
            upper_threshold=0.999,
            topology=EdgeCloudTopology.regular_edge_different_location(),
        )
        near = CroesusConfig(
            seed=3,
            lower_threshold=0.0,
            upper_threshold=0.999,
            topology=EdgeCloudTopology.regular_edge_same_location(),
        )
        far_result = _run(far, num_frames=30)[1]
        near_result = _run(near, num_frames=30)[1]
        assert near_result.average_final_latency < far_result.average_final_latency

    def test_bandwidth_accounting_matches_sent_frames(self):
        config = CroesusConfig(seed=3)
        system = CroesusSystem(config)
        video = make_video("v1", num_frames=20, seed=3)
        result = system.run(video)
        sent_frames = sum(1 for t in result.traces if t.sent_to_cloud)
        # two transfers (uplink frame + downlink labels) per validated frame
        assert system.edge_cloud.transfer_count == 2 * sent_frames

    def test_a_second_run_raises(self):
        system = CroesusSystem(CroesusConfig(seed=3))
        system.run(make_video("v1", num_frames=10, seed=3))
        sections = len(system.history)
        assert sections > 0
        with pytest.raises(RuntimeError, match="runs once; build a fresh system"):
            system.run(make_video("v1", num_frames=10, seed=4))
        assert len(system.history) == sections  # the refused run recorded nothing

    @pytest.mark.parametrize("seed", [3, 4])
    def test_each_frame_gets_an_initial_then_a_final_response(self, seed):
        system = CroesusSystem(CroesusConfig(seed=3))
        video = make_video("v1", num_frames=10, seed=seed)
        client = Client(video)
        result = system.run(video, client=client)
        previous_final = 0.0
        for trace in result.traces:
            initial, final = [r for r in client.responses if r.frame_id == trace.frame_id]
            assert (initial.stage, final.stage) == ("initial", "final")
            # Closed loop: a frame is captured once its predecessor's final
            # response is back.
            assert initial.timestamp > previous_final
            cloud = trace.latency.cloud_transfer + trace.latency.cloud_detection
            assert (cloud > 0) == trace.sent_to_cloud
            assert final.timestamp >= initial.timestamp + cloud
            previous_final = final.timestamp
        assert len(client.responses) == 2 * result.num_frames
