"""Tests for frame arrival timing and the per-edge server model."""

import pytest

from repro.cluster import ClusterConfig, ClusterSystem
from repro.cluster.scheduler import FrameScheduler
from repro.sim.engine import At, Engine, Server
from repro.video.library import make_camera_streams


def make_streams(count: int, frames: int = 5):
    return make_camera_streams(count, num_frames=frames, seed=0, keys=("v1",))


def merged_timeline(scheduler: FrameScheduler, streams) -> list[tuple[float, int, int]]:
    """Drive one lazy per-stream walker per stream on an engine and log
    ``(time, stream_index, frame_id)`` as each arrival fires — the way
    the cluster's stream drivers merge streams into one timeline."""
    engine = Engine()
    fired: list[tuple[float, int, int]] = []

    def walker(index, video, start):
        for frame in video.frames():
            yield At(scheduler.arrival_time(start, frame.frame_id), -1)
            fired.append((engine.now, index, frame.frame_id))

    starts = scheduler.phase_offsets(len(streams))
    for index, (video, start) in enumerate(zip(streams, starts)):
        engine.start(walker(index, video, start))
    engine.run()
    return fired


class TestFrameScheduler:
    def test_arrivals_are_time_ordered(self):
        scheduler = FrameScheduler(frame_interval=0.1)
        fired = merged_timeline(scheduler, make_streams(3))
        times = [time for time, _, _ in fired]
        assert times == sorted(times)
        assert len(fired) == 3 * 5
        # Same total order the eager interleaver produced.
        assert fired == sorted(fired)

    def test_per_stream_spacing_is_the_frame_interval(self):
        scheduler = FrameScheduler(frame_interval=0.5)
        fired = merged_timeline(scheduler, make_streams(2))
        first = [time for time, index, _ in fired if index == 0]
        spacing = [b - a for a, b in zip(first, first[1:])]
        assert len(first) == 5
        assert all(delta == pytest.approx(0.5) for delta in spacing)

    def test_streams_are_phase_shifted(self):
        scheduler = FrameScheduler(frame_interval=0.3)
        assert scheduler.phase_offsets(3) == [0.0, 0.3 / 3, 2 * 0.3 / 3]
        fired = merged_timeline(scheduler, make_streams(3))
        starts = {index: time for time, index, frame_id in fired if frame_id == 0}
        assert len(set(starts.values())) == 3
        assert max(starts.values()) < 0.3  # every offset inside one interval

    def test_open_loop_stream_ticks_from_its_own_start(self):
        """No phase offset: frame ``k`` arrives at ``start + k * interval``."""
        scheduler = FrameScheduler(frame_interval=0.25)
        assert [scheduler.arrival_time(2.5, k) for k in range(4)] == [2.5, 2.75, 3.0, 3.25]

    def test_arrivals_carry_their_placement(self):
        """Every frame is served where its stream was placed (no migration)."""
        config = ClusterConfig(num_edges=2, frame_interval=0.1)
        result = ClusterSystem(config).run(make_streams(2, frames=3))
        assert result.placements == {"cam0-v1": 0, "cam1-v1": 1}
        for name, edge_id in result.placements.items():
            assert [trace.edge_id for trace in result.per_stream[name].traces] == [edge_id] * 3

    def test_placement_count_must_match(self):
        system = ClusterSystem(ClusterConfig(num_edges=2, frame_interval=0.1))
        system.router.assign = lambda names: [0]
        with pytest.raises(ValueError):
            system.run(make_streams(2))

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            FrameScheduler(frame_interval=0.0)


class TestEdgeServer:
    """The edge queueing model, now provided by the sim engine's Server."""

    @staticmethod
    def serve(server: Server, ready: float, service: float) -> tuple[float, float]:
        start, wait = server.acquire(ready)
        server.finish(start, service)
        return start, wait

    def test_idle_edge_starts_immediately(self):
        server = Server(capacity=1)
        assert server.acquire(1.0) == (1.0, 0.0)

    def test_busy_edge_queues_the_job(self):
        server = Server(capacity=1)
        self.serve(server, 0.0, 2.0)
        start, wait = self.serve(server, 0.5, 1.0)
        assert start == pytest.approx(2.0)
        assert wait == pytest.approx(1.5)

    def test_busy_time_accumulates(self):
        server = Server(capacity=1)
        self.serve(server, 0.0, 1.0)
        self.serve(server, 1.0, 0.5)
        assert server.busy_time == pytest.approx(1.5)
        assert server.utilization(3.0) == pytest.approx(0.5)

    def test_wait_statistics(self):
        server = Server(capacity=1)
        self.serve(server, 0.0, 4.0)
        self.serve(server, 1.0, 0.0)
        self.serve(server, 3.0, 0.0)
        assert server.jobs == 3
        assert server.mean_wait == pytest.approx((0.0 + 3.0 + 1.0) / 3)
        assert server.max_wait == pytest.approx(3.0)

    def test_empty_server_statistics(self):
        server = Server(capacity=1)
        assert server.mean_wait == 0.0
        assert server.max_wait == 0.0
        assert server.utilization(0.0) == 0.0

    def test_negative_service_time_rejected(self):
        server = Server(capacity=1)
        start, _ = server.acquire(0.0)
        with pytest.raises(ValueError):
            server.finish(start, -1.0)
