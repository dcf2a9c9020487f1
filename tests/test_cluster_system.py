"""Tests for the multi-edge cluster deployment."""

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, ClusterSystem, hotspot_bank_factory
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.experiments import get_scenario, run
from repro.video.library import make_camera_streams, make_uneven_camera_streams, make_video

from helpers import cluster_summary


def make_streams(count: int, frames: int = 8, seed: int = 7):
    return make_camera_streams(count, num_frames=frames, seed=seed)


def cluster_config(seed: int = 7, **overrides) -> ClusterConfig:
    overrides.setdefault("num_edges", 2)
    return ClusterConfig(base=CroesusConfig(seed=seed), **overrides)


class TestClusterConfig:
    def test_partition_count(self):
        config = cluster_config(num_edges=3, partitions_per_edge=2)
        assert config.num_partitions == 6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cluster_config(num_edges=0)
        with pytest.raises(ValueError):
            cluster_config(partitions_per_edge=0)
        with pytest.raises(ValueError):
            cluster_config(router_policy="nope")
        with pytest.raises(ValueError):
            cluster_config(frame_interval=0.0)
        with pytest.raises(ValueError):
            cluster_config(hotspot_fraction=2.0)

    def test_with_helpers(self):
        config = cluster_config()
        assert replace(config, num_edges=5).num_edges == 5
        assert config.seed == config.base.seed


class TestClusterRun:
    def test_hotspot_run_completes_end_to_end(self):
        """Acceptance: ≥2 edges + hotspot router, all frames processed."""
        system = ClusterSystem(cluster_config(num_edges=3, router_policy="hotspot"))
        streams = make_streams(4, frames=6)
        result = system.run(streams)

        assert set(result.placements) == {video.name for video in streams}
        assert result.num_frames == 4 * 6
        for name, run in result.per_stream.items():
            assert run.num_frames == 6, name
        assert sum(edge.frames_processed for edge in result.edges) == 24
        assert result.makespan > 0
        assert result.throughput_fps > 0

    def test_cross_partition_fraction_is_nonzero(self):
        system = ClusterSystem(cluster_config(num_edges=2))
        result = system.run(make_streams(2))
        assert result.total_transactions > 0
        assert result.cross_partition_fraction > 0.0
        assert result.multi_partition_transactions > 0

    def test_traces_carry_their_edge(self):
        system = ClusterSystem(cluster_config(num_edges=2))
        result = system.run(make_streams(2, frames=4))
        for name, run in result.per_stream.items():
            home = result.placements[name]
            assert all(trace.edge_id == home for trace in run.traces)

    def test_seeded_run_is_reproducible(self):
        """Acceptance: identical configs and seeds give identical runs."""
        def run_once():
            system = ClusterSystem(cluster_config(num_edges=3, router_policy="hotspot"))
            return system.run(make_streams(4, frames=5))

        first, second = run_once(), run_once()
        assert cluster_summary(first) == cluster_summary(second)
        assert first.placements == second.placements
        for name in first.per_stream:
            a = first.per_stream[name].traces
            b = second.per_stream[name].traces
            assert [t.latency for t in a] == [t.latency for t in b]
            assert [t.accuracy for t in a] == [t.accuracy for t in b]

    def test_queue_delay_grows_with_stream_count(self):
        """One edge, rising load: mean queue delay must not shrink."""
        delays = []
        for count in (1, 2, 4):
            system = ClusterSystem(cluster_config(num_edges=1, frame_interval=0.02))
            delays.append(system.run(make_streams(count, frames=5)).mean_queue_delay)
        assert delays[0] <= delays[1] <= delays[2]
        assert delays[2] > delays[0]

    def test_abort_accounting_matches_controller_stats(self):
        """Cluster-level 2PC abort numbers must mirror the replicas' stats."""
        config = ClusterConfig(
            base=CroesusConfig(seed=11, consistency=ConsistencyLevel.MS_SR),
            num_edges=3,
        )
        system = ClusterSystem(config, bank_factory=hotspot_bank_factory(11, key_range=10))
        result = system.run(make_streams(3, frames=8, seed=11))

        assert result.stats.aborts == sum(r.stats.aborts for r in system.replicas)
        assert result.stats.initial_commits == sum(r.stats.initial_commits for r in system.replicas)
        assert result.stats.final_commits == sum(r.stats.final_commits for r in system.replicas)
        assert result.stats.aborts > 0
        expected_rate = result.stats.aborts / (result.stats.initial_commits + result.stats.aborts)
        assert result.stats.abort_rate == pytest.approx(expected_rate)

    def test_hotspot_router_skews_load(self):
        config = cluster_config(seed=1, num_edges=4, router_policy="hotspot", hotspot_fraction=1.0)
        result = ClusterSystem(config).run(make_streams(4, frames=4, seed=1))
        assert result.edges[0].frames_processed == 16
        assert all(edge.frames_processed == 0 for edge in result.edges[1:])

    def test_repeated_runs_start_from_clean_queues(self):
        """A second run() must not inherit the first run's backlog."""
        system = ClusterSystem(cluster_config(num_edges=2))
        system.run(make_streams(2, frames=4))
        second = system.run(make_streams(2, frames=4, seed=20))

        assert second.num_frames == 2 * 4
        # queue accounting covers only this run: two admissions per frame
        assert sum(edge.queue_jobs for edge in second.edges) == 2 * second.num_frames
        # stream assignments are not duplicated across runs
        assert sum(len(edge.streams) for edge in second.edges) == 2
        assert second.total_transactions > 0

    def test_rejects_empty_or_duplicate_streams(self):
        system = ClusterSystem(cluster_config())
        with pytest.raises(ValueError):
            system.run([])
        video_a = make_video("v1", num_frames=2, seed=0)
        video_b = make_video("v1", num_frames=2, seed=1)
        with pytest.raises(ValueError):
            system.run([video_a, video_b])

    def test_summary_keys(self):
        system = ClusterSystem(cluster_config())
        summary = cluster_summary(system.run(make_streams(2, frames=3)))
        assert {
            "edges",
            "streams",
            "frames",
            "throughput_fps",
            "mean_queue_delay_ms",
            "cross_partition_fraction",
            "two_phase_abort_rate",
            "f_score",
        } <= set(summary)


class TestCloudContention:
    def test_unbounded_cloud_never_queues(self):
        system = ClusterSystem(cluster_config(num_edges=2, cloud_servers=None))
        result = system.run(make_streams(4, frames=6))
        assert result.mean_cloud_queue_delay == 0.0

    def test_single_cloud_server_queues_validations(self):
        """Acceptance: cloud_servers=1 + enough validated frames -> nonzero delay."""
        system = ClusterSystem(cluster_config(num_edges=2, cloud_servers=1))
        result = system.run(make_streams(4, frames=6))
        validated = [
            trace
            for run in result.per_stream.values()
            for trace in run.traces
            if trace.sent_to_cloud
        ]
        assert len(validated) > 2
        assert result.mean_cloud_queue_delay > 0.0
        assert any(trace.latency.cloud_queue_delay > 0.0 for trace in validated)
        # unvalidated frames never pay cloud queueing
        for run in result.per_stream.values():
            for trace in run.traces:
                if not trace.sent_to_cloud:
                    assert trace.latency.cloud_queue_delay == 0.0

    def test_more_cloud_servers_drain_the_queue(self):
        delays = []
        for servers in (1, 2, 4):
            system = ClusterSystem(cluster_config(num_edges=2, cloud_servers=servers))
            delays.append(system.run(make_streams(4, frames=6)).mean_cloud_queue_delay)
        assert delays[0] >= delays[1] >= delays[2]
        assert delays[0] > delays[2]

    def test_cloud_queue_figures_fold_the_validated_traces(self):
        system = ClusterSystem(cluster_config(num_edges=2, cloud_servers=1))
        result = system.run(make_streams(4, frames=6))
        delays = [
            trace.latency.cloud_queue_delay
            for run in result.per_stream.values()
            for trace in run.traces
            if trace.sent_to_cloud
        ]
        assert result.cloud_validations == len(delays) > 0
        assert result.cloud_queued == sum(1 for delay in delays if delay > 0) > 0
        assert result.max_cloud_queue_delay == max(delays)
        assert result.mean_cloud_queue_delay == pytest.approx(sum(delays) / len(delays))

    def test_rejects_nonpositive_cloud_servers(self):
        with pytest.raises(ValueError):
            cluster_config(cloud_servers=0)


def uneven_streams(seed: int = 11):
    """Two long-running cameras plus six short ones (placement-time traps)."""
    return make_uneven_camera_streams(8, long_frames=40, short_frames=10, seed=seed)


class TestStreamMigration:
    def migrating_config(self, policy: str = "migrating") -> ClusterConfig:
        return ClusterConfig(
            base=CroesusConfig(seed=11, consistency=ConsistencyLevel.MS_SR),
            num_edges=4,
            router_policy=policy,
            frame_interval=0.2,
        )

    def test_migrations_fire_and_are_recorded(self):
        system = ClusterSystem(
            self.migrating_config(), bank_factory=hotspot_bank_factory(11, key_range=50)
        )
        result = system.run(uneven_streams())
        assert result.migrations
        for record in result.migrations:
            assert record.from_edge != record.to_edge
            assert record.utilization > 0
        # final placements reflect the last move of every migrated stream
        last_move = {record.stream: record.to_edge for record in result.migrations}
        for stream, edge in last_move.items():
            assert result.final_placements[stream] == edge

    @pytest.fixture(scope="class")
    def migrated(self):
        system = ClusterSystem(
            self.migrating_config(), bank_factory=hotspot_bank_factory(11, key_range=50)
        )
        result = system.run(uneven_streams())
        assert result.migrations
        return result

    def test_each_move_starts_where_the_stream_last_was(self, migrated):
        result = migrated
        times = [record.time for record in result.migrations]
        assert times == sorted(times)
        at = dict(result.placements)
        for record in result.migrations:
            assert record.from_edge == at[record.stream], record
            at[record.stream] = record.to_edge

    def test_load_driven_moves_carry_no_reason(self, migrated):
        # Only a failure ("edge_failed") or a failback ("edge_recovered")
        # tags a move; this run has neither.
        assert {record.reason for record in migrated.migrations} == {None}

    def test_migration_reduces_max_utilization_vs_least_loaded(self):
        """Acceptance: runtime migration beats placement-time least-loaded."""
        outcomes = {}
        for policy in ("least-loaded", "migrating"):
            system = ClusterSystem(
                self.migrating_config(policy),
                bank_factory=hotspot_bank_factory(11, key_range=50),
            )
            outcomes[policy] = system.run(uneven_streams())
        assert outcomes["migrating"].migrations
        assert not outcomes["least-loaded"].migrations
        assert (
            cluster_summary(outcomes["migrating"])["max_utilization"]
            < cluster_summary(outcomes["least-loaded"])["max_utilization"]
        )

    def test_static_policies_never_migrate(self):
        system = ClusterSystem(cluster_config(num_edges=2, router_policy="round-robin"))
        result = system.run(make_streams(4, frames=6))
        assert not result.migrations
        assert result.final_placements == result.placements

    def test_rejects_bad_migration_band(self):
        with pytest.raises(ValueError):
            cluster_config(migration_high=0.4, migration_low=0.6)
        with pytest.raises(ValueError):
            cluster_config(migration_window=0.0)


class TestArrivalTieRule:
    """Arrivals win same-instant ties — what bit-identity with the
    eagerly scheduled timeline rests on.

    The lazy stream drivers push each arrival one frame ahead, long
    after the failure/checkpoint/adaptation processes were spawned, so
    only the drivers' event priority keeps a frame arriving at the very
    instant of one of those admitted *before* it, as when every arrival
    was scheduled up front.
    """

    def test_frame_at_the_failure_checkpoint_and_tick_instant_is_admitted_first(
        self, monkeypatch
    ):
        from repro.cluster.node import EdgeReplica
        from repro.core.adaptive import AdaptationManager
        from repro.core.edge import EdgeNode
        from repro.storage.partition import Partition

        config = cluster_config(
            frame_interval=1.0,
            failure_schedule=((0, 3.0, 5.0),),
            checkpoint_interval_s=1.0,
            threshold_adaptation="feedback",
            adaptation_interval_s=1.0,
        )
        system = ClusterSystem(config)
        edge_of = {id(replica.node): replica.edge_id for replica in system.replicas}
        #: ``(what, simulated time, detail)`` in execution order.
        order: list[tuple[str, float, object]] = []

        def logged(what, method, detail):
            def hook(*args, **kwargs):
                order.append((what, system._run_engine.now, detail(*args)))
                return method(*args, **kwargs)

            return hook

        def edge_and_frame(node, frame, *_):
            return edge_of[id(node)], frame.frame_id

        def untagged(*_):
            return None

        for owner, name, what, detail in (
            (EdgeNode, "process_initial_stage", "initial", edge_and_frame),
            (EdgeReplica, "fail", "failure", untagged),
            (Partition, "take_checkpoint", "checkpoint", untagged),
            (AdaptationManager, "adapt_all", "tick", untagged),
        ):
            monkeypatch.setattr(owner, name, logged(what, getattr(owner, name), detail))
        result = system.run(make_streams(2, frames=6))
        assert result.placements["cam0-v1"] == 0  # arrives at 0.0, 1.0, ... on the failing edge

        # cam0-v1's frame 3 arrives at exactly 3.0 (cam1's frames at x.5).
        admitted = next(
            index
            for index, (what, now, detail) in enumerate(order)
            if what == "initial" and now == 3.0 and detail[1] == 3
        )
        # Admitted on its home edge: the failure had not re-routed it yet.
        assert order[admitted][2] == (0, 3)
        for kind in ("failure", "checkpoint", "tick"):
            at_three = next(
                index
                for index, (what, now, _) in enumerate(order)
                if what == kind and now == 3.0
            )
            assert admitted < at_three, kind
        # The next frame of the stream is served by the failover target.
        assert result.per_stream["cam0-v1"].traces[4].edge_id == 1

    def test_open_loop_stream_starts_frame_zero_at_its_admission_instant(self, monkeypatch):
        from repro.traffic.source import TrafficConfig

        system = ClusterSystem(cluster_config())
        traffic = TrafficConfig(
            offered_rate=2.0, duration_s=4.0, mean_frames=3, frame_interval=0.25
        )
        admitted_at: dict[str, float] = {}
        admit = ClusterSystem._admit_stream

        def logged_admit(self, state, video):
            admitted_before = state.traffic.admitted_streams
            admit(self, state, video)
            if state.traffic.admitted_streams > admitted_before:
                admitted_at[video.name] = state.engine.now

        monkeypatch.setattr(ClusterSystem, "_admit_stream", logged_admit)
        result = system.run_open_loop(traffic)
        assert len(admitted_at) == result.traffic.admitted_streams >= 3
        uploads = {
            transfer.description: transfer.timestamp
            for channel in system._client_edge
            for transfer in channel.transfers
        }
        interval = system.config.frame_interval
        for stream, now in admitted_at.items():
            assert uploads[f"{stream}-frame-0"] == now
            assert uploads[f"{stream}-frame-2"] == now + 2 * interval


class TestDeterminismPin:
    """Golden summary of one seeded run, read off the ``cluster-small``
    scenario's report (seed 11, 2 edges x 4 streams x 6 frames).

    These exact values were produced by the pre-engine implementation
    (PR 1) for the then-existing keys and must never drift: they pin
    both the refactor's behaviour-preservation and future changes'.
    """

    GOLDEN = {
        "edges": 2.0,
        "streams": 4.0,
        "frames": 24.0,
        "makespan_s": 3.5568000021864665,
        "throughput_fps": 6.747638322437729,
        "mean_queue_delay_ms": 786.8335646687067,
        "mean_cloud_queue_delay_ms": 0.0,
        "max_utilization": 0.6918158752054603,
        "cross_partition_fraction": 0.7857142857142857,
        "num_cross_partition_txns": 22.0,
        "two_phase_abort_rate": 0.0,
        "f_score": 0.5853658536585366,
        "migrations": 0.0,
    }

    def test_seeded_summary_matches_golden_values(self):
        report = run(get_scenario("cluster-small"))
        summary = {
            "edges": float(len(report.edges)),
            "streams": float(report.streams),
            "frames": float(report.frames),
            "makespan_s": report.makespan_s,
            "throughput_fps": report.throughput_fps,
            "mean_queue_delay_ms": report.queue_delay_ms,
            "mean_cloud_queue_delay_ms": report.cloud_queue_delay_ms,
            "max_utilization": report.max_utilization,
            "cross_partition_fraction": report.cross_partition_fraction,
            "num_cross_partition_txns": float(report.cross_partition_txns),
            "two_phase_abort_rate": report.abort_rate,
            "f_score": report.f_score,
            "migrations": float(report.migrations),
        }
        for key, value in self.GOLDEN.items():
            assert summary[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
