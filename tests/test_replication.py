"""Tests for replicated partitions: log shipping, quorum acks, and
warm-standby promotion (zero-downtime failover)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.replication import (
    ASYNC_FLUSH_DELAY_S,
    REPLICATION_MODES,
    ReplicationGroup,
)
from repro.cluster import ClusterConfig, ClusterSystem
from repro.cluster.system import hotspot_bank_factory
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.experiments import ScenarioSpec, get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config
from repro.storage.kvstore import KeyValueStore
from repro.storage.wal import LogRecord, WriteAheadLog
from repro.video.library import make_camera_streams

from helpers import cluster_summary, count_constructions


def replication_config(seed: int = 11, **overrides) -> ClusterConfig:
    """The `tests/test_cluster_failure.py` golden scenario plus backups."""
    overrides.setdefault("num_edges", 3)
    overrides.setdefault("frame_interval", 0.2)
    overrides.setdefault("checkpoint_interval_s", 0.5)
    overrides.setdefault("failure_schedule", ((1, 1.0, 2.0),))
    overrides.setdefault("replication_factor", 2)
    return ClusterConfig(
        base=CroesusConfig(seed=seed, consistency=ConsistencyLevel.MS_SR),
        **overrides,
    )


def run_replicated(**overrides):
    system = ClusterSystem(replication_config(**overrides))
    result = system.run(make_camera_streams(6, num_frames=10, seed=11))
    return system, result


def availability(result):
    """A run's failure, recovery, re-sharding and log-shipping accounting."""
    return (
        result.failures,
        result.downtime_s,
        result.recovery_time_s,
        result.wal_records_replayed,
        result.transactions_replayed,
        result.txns_aborted_by_failure,
        result.checkpoints,
        result.reshards,
        result.replication,
    )


class TestReplicationValidation:
    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="replication_mode"):
            replication_config(replication_mode="paxos")
        with pytest.raises(ValueError, match="replication_mode"):
            ScenarioSpec(deployment="cluster", replication_mode="paxos")

    def test_factor_bounds(self):
        with pytest.raises(ValueError, match="at least 1"):
            replication_config(replication_factor=0)
        # Backups live on distinct edges, so factor is capped by the fleet.
        with pytest.raises(ValueError, match="distinct edges"):
            replication_config(replication_factor=4)
        with pytest.raises(ValueError, match="distinct edges"):
            ScenarioSpec(deployment="cluster", num_edges=3, replication_factor=4)

    def test_replication_excludes_scheduled_resharding(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            replication_config(resharding=((1.5, 0, 2),))
        with pytest.raises(ValueError, match="re-homes partitions"):
            ScenarioSpec(
                deployment="cluster",
                num_edges=3,
                replication_factor=2,
                resharding=((1.5, 0, 2),),
            )

    def test_group_commit_window_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            replication_config(replication_factor=1, wal_group_commit_window_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            ScenarioSpec(deployment="cluster", wal_group_commit_window_ms=-1.0)


class TestReplicationGroup:
    def make_group(self, factor: int = 3, mode: str = "sync") -> ReplicationGroup:
        return ReplicationGroup(
            partition_id=0,
            primary_edge=0,
            backup_edges=list(range(1, factor)),
            factor=factor,
            mode=mode,
        )

    def test_ack_delay_per_mode(self):
        delays = [0.003, 0.001, 0.002]
        assert self.make_group(mode="sync").ack_delay(list(delays)) == 0.003
        # factor 3: majority is 2 of 3, and the primary counts, so the
        # ack needs only the fastest backup.
        assert self.make_group(mode="quorum").ack_delay(list(delays)) == 0.001
        assert self.make_group(factor=4, mode="quorum").ack_delay(list(delays)) == 0.002
        assert self.make_group(mode="async").ack_delay(list(delays)) == 0.0
        assert self.make_group(mode="sync").ack_delay([]) == 0.0

    def test_election_prefers_caught_up_then_low_edge_id(self):
        wal = WriteAheadLog()
        assert [wal.append(f"t{i}", "k", i) for i in range(3)] == [1, 2, 3]
        records = wal.records()
        assert [(r.lsn, r.transaction_id, r.value) for r in records] == [
            (i + 1, f"t{i}", i) for i in range(3)
        ]
        group = self.make_group()
        for record in records:
            group.apply(1, record)
        group.apply(2, records[0])
        assert group.elect() == 1
        # Tie on applied LSN breaks toward the lowest edge id.
        tied = self.make_group()
        tied.apply(1, records[0])
        tied.apply(2, records[0])
        assert tied.elect() == 1
        empty = ReplicationGroup(
            partition_id=0, primary_edge=0, backup_edges=[], factor=2, mode="sync"
        )
        assert empty.elect() is None

    def test_promotion_replays_only_the_gap(self):
        wal = WriteAheadLog()
        assert [wal.append(f"t{i}", f"k{i}", i) for i in range(5)] == [1, 2, 3, 4, 5]
        records = wal.records()
        group = self.make_group(factor=2)
        for record in records[:3]:
            group.apply(1, record)
        store, gap = group.promote(1, wal)
        assert [record.lsn for record in gap] == [4, 5]
        assert gap == records[3:]
        assert store.snapshot() == {f"k{i}": i for i in range(5)}
        assert group.primary_edge == 1
        assert 1 not in group.backup_edges

    @given(
        writes=st.lists(
            st.tuples(st.sampled_from("abcde"), st.integers(0, 100)),
            min_size=1,
            max_size=30,
        ),
        cut=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_promoted_store_matches_primary_committed_state(self, writes, cut):
        """The failover invariant: whatever prefix the network delivered,
        promotion (standby state + gap replay off the surviving log tail)
        reconstructs exactly the crashed primary's committed state."""
        wal = WriteAheadLog()
        primary = KeyValueStore()
        for index, (key, value) in enumerate(writes):
            assert wal.append(f"txn-{index}", key, value) == index + 1
            primary.write(key, value, writer=f"txn-{index}")
        records = wal.records()
        group = ReplicationGroup(
            partition_id=0, primary_edge=0, backup_edges=[1], factor=2, mode="sync"
        )
        applied = min(cut, len(records))
        for record in records[:applied]:
            group.apply(1, record)
        assert group.elect() == 1
        store, gap = group.promote(1, wal)
        assert len(gap) == len(records) - applied
        assert store.snapshot() == primary.snapshot()


class TestWarmFailover:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_replicated()

    def test_all_frames_complete_despite_the_failure(self, outcome):
        _, result = outcome
        assert result.num_frames == 6 * 10
        assert len(result.failures) == 1

    def test_promotion_determinism_golden(self, outcome):
        """Golden pin of the warm-failover path (seed 11, MS-SR)."""
        _, result = outcome
        assert result.downtime_s == pytest.approx(0.00870625089039212, abs=1e-12)
        replication = result.replication
        assert len(replication["promotion_events"]) == 1
        promotion = replication["promotion_events"][0]
        assert promotion["partition"] == 1
        assert promotion["from_edge"] == 1
        assert promotion["to_edge"] == 2
        assert promotion["failed_at_s"] == pytest.approx(1.0)
        assert promotion["promoted_at_s"] == pytest.approx(1.0087062508903921, abs=1e-12)
        assert promotion["applied_lsn"] == 3
        assert promotion["records_caught_up"] == 0
        assert replication["log_records_shipped"] == 480
        assert replication["replication_lag_ms"] == pytest.approx(2.1187399972718968, abs=1e-9)

    def test_failover_skips_checkpoint_restore(self, outcome):
        """Promotion is detection + election + gap replay — with sync
        shipping the backup was current, so no records are replayed."""
        _, result = outcome
        failure = result.failures[0]
        assert failure.edge_id == 1
        assert failure.recovery_time == 0.0
        assert failure.records_replayed == 0
        assert failure.transactions_replayed == 0
        assert failure.downtime == pytest.approx(result.downtime_s)

    def test_failure_cycle_closes_when_the_promotion_lands(self, outcome):
        """Service is back the instant the slowest promotion lands, long
        before the crashed host's scheduled restart at t = 2.0."""
        _, result = outcome
        (failure,) = result.failures
        (promotion,) = result.replication["promotion_events"]
        assert promotion["from_edge"] == failure.edge_id
        assert promotion["failed_at_s"] == failure.failed_at
        assert failure.recovered_at == promotion["promoted_at_s"]
        assert failure.downtime < 0.1

    def test_repeat_run_is_bitwise_identical(self, outcome):
        _, first = outcome
        _, again = run_replicated()
        assert cluster_summary(again) == cluster_summary(first)
        assert availability(again) == availability(first)

    def test_failover_beats_replay_downtime_by_5x(self, outcome):
        _, replicated = outcome
        _, replay = run_replicated(replication_factor=1)
        assert replay.downtime_s == pytest.approx(1.02204, abs=1e-4)
        assert replicated.downtime_s > 0
        assert replay.downtime_s >= 5.0 * replicated.downtime_s

    def test_rejoined_host_comes_back_as_standby(self, outcome):
        system, _ = outcome
        # The crash dropped edge 1's standbys; after its restart it holds
        # one again, rebuilt from the durable log.
        standbys = [
            group.standby_logs[1]
            for group in system._replication.groups()
            if 1 in group.backup_edges
        ]
        assert standbys
        assert all(len(log.records()) > 0 for log in standbys)


@pytest.mark.usefixtures("rows_kept")
def test_a_failback_run_re_enrolls_a_standby_from_rows(monkeypatch):
    """Re-enrolling the recovered edge of a fail-back run copies the primary
    log's rows and replays them: it builds no ``LogRecord``, and the standby
    ends with the log, LSNs and store versions that applying every rendered
    record one by one gave."""
    built = count_constructions(monkeypatch, LogRecord)
    enrolled = []
    enroll = ReplicationGroup.enroll

    def checked_enroll(group, edge, wal, now):
        before = built["LogRecord"]
        enroll(group, edge, wal, now)
        assert built["LogRecord"] == before
        log, store = group.standby_logs[edge], group.standby_stores[edge]
        one_by_one_log, one_by_one_store = WriteAheadLog(), KeyValueStore()
        for record in wal.records():
            one_by_one_log.append_record(record)
            one_by_one_store.write(record.key, record.value, writer=record.transaction_id)
        assert log.records() == one_by_one_log.records()
        assert log.last_lsn == group.applied_lsn[edge] == wal.last_lsn > 0
        assert log.latest_checkpoint is None and log.on_append is None
        assert [(key, store.history(key)) for key in store.keys()] == [
            (key, one_by_one_store.history(key)) for key in one_by_one_store.keys()
        ]
        enrolled.append(edge)

    monkeypatch.setattr(ReplicationGroup, "enroll", checked_enroll)
    spec = get_scenario("replicated-failover").with_(failback=True)
    system = ClusterSystem(
        build_cluster_config(spec),
        bank_factory=hotspot_bank_factory(spec.seed, key_range=spec.hot_key_range),
    )
    system.run(build_streams(spec))
    assert enrolled


class TestShippingModes:
    def test_factor_one_is_inert_and_mode_axis_has_no_effect(self):
        _, baseline = run_replicated(replication_factor=1)
        _, async_one = run_replicated(replication_factor=1, replication_mode="async")
        assert cluster_summary(async_one) == cluster_summary(baseline)
        assert availability(async_one) == availability(baseline)
        # No shipping, no promotions: factor 1 builds no replication block.
        assert baseline.replication is None

    def test_sync_pays_acks_async_pays_staleness(self):
        _, sync_result = run_replicated(replication_mode="sync")
        _, async_result = run_replicated(replication_mode="async")
        _, quorum_result = run_replicated(
            replication_factor=3, replication_mode="quorum"
        )
        sync, asynchronous, quorum = (
            outcome.replication for outcome in (sync_result, async_result, quorum_result)
        )
        assert sync["replication_ack_wait_ms"] > 0
        assert quorum["replication_ack_wait_ms"] > 0
        assert asynchronous["replication_ack_wait_ms"] == 0.0
        # The async flush buffer shows up as shipping lag.
        assert (
            asynchronous["replication_lag_ms"]
            >= sync["replication_lag_ms"] + ASYNC_FLUSH_DELAY_S * 1000.0 / 2
        )
        # A quorum ack returns at the fastest backup, never after the
        # slowest-link lag a sync ack would wait on.
        assert quorum["replication_ack_wait_ms"] <= quorum["replication_lag_ms"]

    def test_modes_are_exactly_the_supported_set(self):
        assert set(REPLICATION_MODES) == {"sync", "quorum", "async"}


class TestGroupCommit:
    def test_window_batches_flushes_without_changing_results(self):
        _, plain = run_replicated(replication_factor=1, failure_schedule=())
        _, eager = run_replicated(replication_factor=2, failure_schedule=())
        _, windowed = run_replicated(
            replication_factor=1,
            failure_schedule=(),
            wal_group_commit_window_s=0.05,
        )
        # The append observer only exists when replication or group commit
        # asks for it; the untouched default path counts nothing.
        assert plain.policy_stats.log_appends == 0
        # Without a window every append is its own flush.
        assert eager.policy_stats.log_appends > 0
        assert eager.policy_stats.log_flushes == eager.policy_stats.log_appends
        assert windowed.policy_stats.log_appends == eager.policy_stats.log_appends
        assert 0 < windowed.policy_stats.log_flushes < windowed.policy_stats.log_appends
        # Group commit is a durability/accounting policy, not a scheduling
        # change: the simulated outcome stays pinned.
        assert cluster_summary(windowed) == cluster_summary(plain)
