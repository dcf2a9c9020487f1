"""Tests for replica failure/recovery and runtime re-sharding."""

import pytest

from repro.cluster.failure import (
    FailureSpec,
    ReshardSpec,
    recovery_time,
    validate_failure_schedule,
)
from repro.cluster import ClusterConfig, ClusterSystem
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.experiments import ScenarioSpec, run, validate_report
from repro.video.library import make_camera_streams


def failure_config(seed: int = 11, **overrides) -> ClusterConfig:
    overrides.setdefault("num_edges", 3)
    overrides.setdefault("frame_interval", 0.2)
    overrides.setdefault("failure_schedule", ((1, 1.0, 2.0),))
    consistency = overrides.pop("consistency", ConsistencyLevel.MS_SR)
    return ClusterConfig(base=CroesusConfig(seed=seed, consistency=consistency), **overrides)


class TestFailureSpecs:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            FailureSpec(edge_id=0, fail_at=2.0, recover_at=1.0)
        with pytest.raises(ValueError):
            FailureSpec(edge_id=-1, fail_at=0.0, recover_at=1.0)
        with pytest.raises(ValueError):
            ReshardSpec(at=-1.0, partition_id=0, to_edge=1)

    def test_schedule_validation(self):
        specs = (FailureSpec(0, 1.0, 2.0), FailureSpec(1, 1.5, 2.5))
        with pytest.raises(ValueError, match="overlapping"):
            validate_failure_schedule(specs, num_edges=3)
        with pytest.raises(ValueError, match="at least 2 edges"):
            validate_failure_schedule((FailureSpec(0, 1.0, 2.0),), num_edges=1)
        with pytest.raises(ValueError, match="there are 2 edges"):
            validate_failure_schedule((FailureSpec(5, 1.0, 2.0),), num_edges=2)

    def test_config_normalises_plain_tuples(self):
        config = failure_config()
        assert config.failure_schedule == (FailureSpec(1, 1.0, 2.0),)

    def test_recovery_time_grows_with_replay_volume(self):
        assert recovery_time(0, 0) < recovery_time(10, 0) < recovery_time(10, 100)


class TestFailureRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        system = ClusterSystem(failure_config(checkpoint_interval_s=0.5))
        result = system.run(make_camera_streams(6, num_frames=10, seed=11))
        return system, result

    def test_all_frames_complete_despite_the_failure(self, outcome):
        _, result = outcome
        assert result.num_frames == 6 * 10
        assert len(result.failures) == 1

    def test_streams_fail_over_to_live_edges(self, outcome):
        _, result = outcome
        moved = [record for record in result.migrations if record.from_edge == 1]
        assert moved
        assert all(record.to_edge != 1 for record in moved)
        assert any(record.reason == "edge_failed" for record in moved)

    def test_failover_moves_are_the_failure_records_streams(self, outcome):
        _, result = outcome
        (failure,) = result.failures
        failed_over = [record for record in result.migrations if record.reason == "edge_failed"]
        assert len(failed_over) == failure.streams_migrated > 0
        assert len({record.stream for record in failed_over}) == failure.streams_migrated
        for record in failed_over:
            assert record.from_edge == failure.edge_id
            assert record.time == failure.failed_at

    def test_failure_and_recovery_are_recorded(self, outcome):
        _, result = outcome
        (record,) = result.failures
        assert record.edge_id == 1
        assert record.recovered_at == pytest.approx(record.failed_at + record.downtime)
        assert record.downtime > 1.0  # scheduled outage plus the replay
        assert record.recovery_time > 0.0

    def test_in_flight_transactions_abort_through_the_policy_seam(self, outcome):
        _, result = outcome
        assert result.txns_aborted_by_failure > 0
        assert result.failures[0].txns_aborted > 0

    def test_recovery_replays_the_wal(self, outcome):
        system, result = outcome
        assert result.wal_records_replayed >= result.transactions_replayed
        # After recovery the failed edge's partitions serve again.
        for partition_id in system.replicas[1].owned_partitions:
            assert system.store.partition(partition_id).available

    def test_checkpoints_are_taken_and_counted(self, outcome):
        _, result = outcome
        assert result.checkpoints > 0

    def test_availability_totals_fold_the_failure_records(self, outcome):
        _, result = outcome
        (failure,) = result.failures
        assert result.downtime_s == failure.downtime > 0.0
        assert result.recovery_time_s == failure.recovery_time
        assert result.wal_records_replayed == failure.records_replayed
        assert result.transactions_replayed == failure.transactions_replayed
        assert result.txns_aborted_by_failure >= failure.txns_aborted > 0


class TestPolicyResolution:
    """Prepared-but-uncommitted finals abort or await per commit policy."""

    def run_with_policy(self, policy: str):
        system = ClusterSystem(failure_config(transaction_policy=policy))
        return system.run(make_camera_streams(6, num_frames=10, seed=11))

    def test_immediate_aborts_in_flight_finals(self):
        result = self.run_with_policy("immediate-2pc")
        assert result.failures[0].txns_aborted > 0

    def test_async_finals_await_the_recovered_coordinator(self):
        result = self.run_with_policy("async-2pc")
        # Async participants hold their prepared state: the failure itself
        # aborts nothing; frames park and finalise after the rejoin.
        assert result.failures[0].txns_aborted == 0
        assert result.num_frames == 6 * 10


class TestFailureEdgeCases:
    def test_back_to_back_failures_wait_for_the_replay_window(self):
        """A failure scheduled at another replica's recover_at must wait
        for that replica's replay to finish (one failure at a time)."""
        system = ClusterSystem(
            failure_config(
                num_edges=2,
                failure_schedule=((0, 1.0, 2.0), (1, 2.0, 3.0)),
            )
        )
        result = system.run(make_camera_streams(4, num_frames=10, seed=11))
        assert result.num_frames == 4 * 10
        assert len(result.failures) == 2
        first, second = sorted(result.failures, key=lambda record: record.failed_at)
        # The second failure fired only once the first replica rejoined.
        assert second.failed_at >= first.recovered_at

    def test_migrating_router_never_targets_a_failed_edge(self):
        system = ClusterSystem(
            failure_config(
                num_edges=3,
                router_policy="migrating",
                failure_schedule=((1, 0.5, 5.0),),
            )
        )
        result = system.run(make_camera_streams(8, num_frames=12, seed=3))
        outage = [
            record
            for record in result.migrations
            if 0.5 <= record.time < result.failures[0].recovered_at
        ]
        assert all(record.to_edge != 1 for record in outage)


class TestResharding:
    def test_scheduled_move_changes_ownership(self):
        system = ClusterSystem(
            failure_config(failure_schedule=(), resharding=((1.0, 1, 0),))
        )
        result = system.run(make_camera_streams(6, num_frames=10, seed=11))
        assert len(result.reshards) == 1
        record = result.reshards[0]
        assert record.partition_id == 1
        assert record.from_edge == 1
        assert record.to_edge == 0
        assert 1 in system.replicas[0].owned_partitions
        assert 1 not in system.replicas[1].owned_partitions
        assert result.num_frames == 6 * 10

    def test_reshard_record_is_stamped_at_its_scheduled_instant(self):
        system = ClusterSystem(
            failure_config(failure_schedule=(), resharding=((1.0, 1, 0),))
        )
        (record,) = system.run(make_camera_streams(6, num_frames=10, seed=11)).reshards
        assert record.time == 1.0
        # The move ships the partition's checkpoint plus its log tail.
        assert record.keys_copied + record.records_shipped > 0

    def test_move_to_current_owner_is_a_noop(self):
        system = ClusterSystem(
            failure_config(failure_schedule=(), resharding=((1.0, 1, 1),))
        )
        result = system.run(make_camera_streams(4, num_frames=6, seed=11))
        assert result.reshards == ()

    def test_config_rejects_unknown_targets(self):
        with pytest.raises(ValueError):
            failure_config(failure_schedule=(), resharding=((1.0, 9, 0),))
        with pytest.raises(ValueError):
            failure_config(failure_schedule=(), resharding=((1.0, 0, 9),))


class TestRecoveryDeterminismPin:
    """Golden pin: a seeded run with one injected failure is reproducible.

    The values were produced by the implementation that introduced the
    durability seam (PR 5) and must never drift; the healthy-run pins in
    ``test_cluster_system.py`` / ``test_experiments.py`` cover the
    no-failure trajectory.
    """

    GOLDEN = {
        "downtime_ms": 1022.0400000000001,
        "recovery_time_ms": 22.039999999999996,
        "frames_replayed": 1,
        "txns_aborted_by_failure": 100,
        "checkpoints": 14,
        "migrations": 2,
        "f_score": 0.9192982456140351,
        "makespan_s": 7.1116629697768365,
        "throughput_fps": 8.436845257570297,
        "transactions": 83,
    }

    def golden_spec(self) -> ScenarioSpec:
        return ScenarioSpec(
            deployment="cluster",
            num_edges=3,
            streams=6,
            frames=10,
            seed=11,
            consistency="ms-sr",
            fps=5.0,
            checkpoint_interval_s=0.5,
            failure_schedule=((1, 1.0, 2.0),),
        )

    def test_seeded_failure_run_matches_golden_values(self):
        report = run(self.golden_spec())
        validate_report(report.to_dict())
        for key, value in self.GOLDEN.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
        event = report.failure_events[0]
        assert event["edge"] == 1
        assert event["failed_at_s"] == pytest.approx(1.0)
        assert event["recovered_at_s"] == pytest.approx(2.02204)

    def test_seeded_failure_run_is_bit_for_bit_reproducible(self):
        first = run(self.golden_spec()).to_json()
        second = run(self.golden_spec()).to_json()
        assert first == second

    def test_spec_round_trip_preserves_the_failure_run(self):
        spec = self.golden_spec()
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert run(rebuilt).to_json() == run(spec).to_json()
