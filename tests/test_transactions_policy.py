"""Policy-conformance suite: one contract, every registered policy.

The :class:`~repro.transactions.policy.TransactionPolicy` seam promises
that swapping the commit policy changes *when and what the coordinator
pays*, never what the transactions compute: section ordering is still
enforced, committed writes still land, MS-SR still aborts conflicting
concurrents, seeded runs are still deterministic — and the default
immediate policy is bit-for-bit the legacy code path (the golden pin).
Every test that can be is parametrized over all of
:data:`~repro.transactions.policy.TXN_POLICIES`.
"""

import pytest

from repro.experiments import ScenarioSpec, run
from repro.network.channel import Channel
from repro.network.latency import SAME_REGION
from repro.sim.rng import RngRegistry
from repro.storage.partition import PartitionedStore
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.model import MultiStageTransaction, SectionSpec
from repro.transactions.ops import ReadWriteSet
from repro.transactions.policy import (
    TXN_POLICIES,
    BatchedTwoPhasePolicy,
    ImmediatePolicy,
    TransactionPolicy,
    make_policy,
)

from helpers import process_initial


def _write_transaction(txn_id: str, initial_keys: set[str], final_keys: set[str]):
    """A transaction writing ``initial_keys`` then ``final_keys``."""

    def initial(ctx):
        for key in sorted(initial_keys):
            ctx.write(key, f"{txn_id}-initial")
        return txn_id

    def final(ctx):
        for key in sorted(final_keys):
            ctx.write(key, f"{txn_id}-final")

    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(
            body=initial, rwset=ReadWriteSet(writes=frozenset(initial_keys))
        ),
        final=SectionSpec(body=final, rwset=ReadWriteSet(writes=frozenset(final_keys))),
    )


def _spanning_keys(store: PartitionedStore, count: int) -> list[str]:
    """Keys guaranteed to span at least two partitions."""
    keys: list[str] = []
    partitions: set[int] = set()
    index = 0
    while len(keys) < count:
        key = f"pkey-{index}"
        partition = store.partition_for(key).partition_id
        if partition not in partitions or len(partitions) > 1:
            keys.append(key)
            partitions.add(partition)
        index += 1
    return keys


def build_policy(name: str, consistency: str = "ms-ia", partitions: int = 4) -> TransactionPolicy:
    store = PartitionedStore(partitions)
    if consistency == "ms-sr":
        controller = DistributedTwoStage2PL(store)
    else:
        controller = DistributedMSIAController(store)
    return make_policy(
        name,
        controller,
        owned_partitions=frozenset({0}),
        channel=Channel(SAME_REGION, RngRegistry(7).stream("coordinator")),
    )


# -- protocol conformance, every policy ---------------------------------------
@pytest.mark.parametrize("policy_name", TXN_POLICIES)
class TestPolicyConformance:
    def test_section_ordering_enforced(self, policy_name):
        policy = build_policy(policy_name)
        txn = _write_transaction("t1", {"pkey-0"}, {"pkey-1"})
        with pytest.raises(SectionOrderError):
            policy.process_final(txn, now=0.0)

    def test_committed_writes_land_in_the_store(self, policy_name):
        policy = build_policy(policy_name)
        store = policy.controller.store
        keys = _spanning_keys(store, 3)
        txn = _write_transaction("t1", set(keys[:2]), {keys[2]})
        process_initial(policy, txn, now=0.0)
        policy.process_final(txn, now=1.0)
        policy.commit(now=2.0)
        for key in keys[:2]:
            assert store.read(key) == "t1-initial"
        assert store.read(keys[2]) == "t1-final"

    def test_ms_sr_aborts_conflicting_concurrent(self, policy_name):
        """Serializability where promised: under MS-SR the first
        transaction's locks ride out the validation gap, so a concurrent
        writer to the same keys must abort."""
        policy = build_policy(policy_name, consistency="ms-sr")
        keys = set(_spanning_keys(policy.controller.store, 2))
        first = _write_transaction("t1", keys, keys)
        second = _write_transaction("t2", keys, keys)
        process_initial(policy, first, now=0.0)
        with pytest.raises(TransactionAborted):
            process_initial(policy, second, now=0.1)
        assert policy.stats.aborts == 1
        policy.process_final(first, now=1.0)

    def test_ms_ia_releases_locks_between_sections(self, policy_name):
        policy = build_policy(policy_name, consistency="ms-ia")
        keys = set(_spanning_keys(policy.controller.store, 2))
        first = _write_transaction("t1", keys, keys)
        second = _write_transaction("t2", keys, keys)
        process_initial(policy, first, now=0.0)
        process_initial(policy, second, now=0.1)  # no abort: locks released
        policy.process_final(first, now=1.0)
        policy.process_final(second, now=1.1)
        assert policy.stats.aborts == 0
        assert policy.stats.final_commits == 2

    def test_deterministic_under_fixed_seed(self, policy_name):
        spec = ScenarioSpec(
            deployment="cluster",
            num_edges=2,
            streams=2,
            frames=4,
            seed=13,
            consistency="ms-sr",
            transaction_policy=policy_name,
        )
        assert run(spec).to_json() == run(spec).to_json()

    def test_runs_on_both_deployments(self, policy_name):
        """Acceptance: every policy runs single-edge and cluster."""
        single = run(ScenarioSpec(video="v1", frames=4, seed=3, transaction_policy=policy_name))
        cluster = run(
            ScenarioSpec(
                deployment="cluster",
                num_edges=2,
                streams=2,
                frames=3,
                seed=3,
                transaction_policy=policy_name,
            )
        )
        assert single.transaction_policy == policy_name
        assert cluster.transaction_policy == policy_name
        # A single edge has no remote partitions: coordinator-free.
        assert single.coordinator_round_trips == 0


# -- the policies differ only where they should -------------------------------
class TestPolicySemantics:
    @pytest.fixture(scope="class")
    def contention_reports(self):
        def spec(policy):
            return ScenarioSpec(
                deployment="cluster",
                num_edges=4,
                streams=8,
                frames=6,
                seed=2022,
                consistency="ms-sr",
                workload="hotspot",
                hot_key_range=50,
                transaction_policy=policy,
            )

        return {policy: run(spec(policy)) for policy in TXN_POLICIES}

    def test_state_identical_across_policies(self, contention_reports):
        """Policies reschedule coordinator messaging; they never change
        what was detected, validated, or committed."""
        baseline = contention_reports["immediate-2pc"]
        for name, report in contention_reports.items():
            assert report.f_score == baseline.f_score, name
            assert report.frames == baseline.frames, name
            assert report.transactions == baseline.transactions, name
            assert report.cross_partition_txns == baseline.cross_partition_txns, name
            assert report.bandwidth_utilization == baseline.bandwidth_utilization, name

    def test_batched_amortises_round_trips(self, contention_reports):
        """Acceptance: batched 2PC cuts mean coordinator round trips per
        cross-edge transaction versus immediate 2PC."""
        immediate = contention_reports["immediate-2pc"]
        batched = contention_reports["batched-2pc"]
        assert immediate.coordinator_round_trips > 0
        assert batched.coordinator_batches > 0
        assert (
            batched.round_trips_per_cross_partition_txn
            < immediate.round_trips_per_cross_partition_txn
        )

    def test_async_reports_overlap_savings(self, contention_reports):
        async_report = contention_reports["async-2pc"]
        assert async_report.overlap_saved_ms > 0.0
        assert async_report.latency["commit_overlap_saved_ms"] > 0.0
        # Async hides latency; it does not remove messages.
        assert (
            async_report.coordinator_round_trips
            == contention_reports["immediate-2pc"].coordinator_round_trips
        )

    def test_immediate_charges_no_commit_latency(self, contention_reports):
        immediate = contention_reports["immediate-2pc"]
        assert immediate.latency["commit_protocol_ms"] == 0.0
        assert immediate.coordinator_batches == 0


# -- golden pin ---------------------------------------------------------------
class TestImmediateGoldenPin:
    """Immediate 2PC through the new API is byte-for-byte the legacy path."""

    #: The seeded summary pinned since PR 1 — the policy seam must not
    #: move a single bit of it.
    GOLDEN = {
        "frames": 24,
        "makespan_s": 3.5568000021864665,
        "throughput_fps": 6.747638322437729,
        "queue_delay_ms": 786.8335646687067,
        "cross_partition_txns": 22,
        "f_score": 0.5853658536585366,
    }

    def golden_spec(self, **overrides) -> ScenarioSpec:
        base = dict(deployment="cluster", num_edges=2, streams=4, frames=6, seed=11)
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_explicit_immediate_matches_default_byte_for_byte(self):
        default = run(self.golden_spec())
        explicit = run(self.golden_spec(transaction_policy="immediate-2pc"))
        assert default.to_json() == explicit.to_json()

    def test_immediate_matches_the_golden_values(self):
        report = run(self.golden_spec(transaction_policy="immediate-2pc"))
        for key, value in self.GOLDEN.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
        assert report.latency["commit_protocol_ms"] == 0.0


# -- the policy layer itself --------------------------------------------------
class TestPolicyApi:
    def test_make_policy_rejects_unknown_names(self):
        store = PartitionedStore(1)
        controller = DistributedMSIAController(store)
        with pytest.raises(ValueError, match="known policies"):
            make_policy("three-phase-commit", controller)

    def test_only_the_cluster_config_carries_a_commit_policy(self):
        from repro.cluster import ClusterConfig
        from repro.core.config import CroesusConfig

        assert ClusterConfig(transaction_policy="async-2pc").transaction_policy == "async-2pc"
        with pytest.raises(ValueError, match="unknown transaction_policy 'three-pc'"):
            ClusterConfig(transaction_policy="three-pc")
        with pytest.raises(TypeError):
            CroesusConfig(transaction_policy="immediate-2pc")

    def test_batched_and_async_need_a_channel(self):
        controller = DistributedMSIAController(PartitionedStore(2))
        with pytest.raises(ValueError, match="coordinator channel"):
            make_policy("batched-2pc", controller, owned_partitions=frozenset({0}))
        with pytest.raises(ValueError, match="coordinator channel"):
            make_policy("async-2pc", controller, owned_partitions=frozenset({0}))

    def test_batched_needs_commit_hooks(self):
        class Plain:
            pass

        with pytest.raises(TypeError, match="commit hooks"):
            BatchedTwoPhasePolicy(
                Plain(), frozenset(), Channel(SAME_REGION, RngRegistry(0).stream("c"))
            )

    def test_a_policy_reaches_its_controller_only_through_controller(self):
        policy = build_policy("immediate-2pc")
        assert policy.controller.commit_records == {}
        assert policy.stats is policy.controller.stats
        with pytest.raises(AttributeError):
            policy.commit_records

    def test_immediate_counts_round_trips_without_charging(self):
        policy = build_policy("immediate-2pc", consistency="ms-ia")
        keys = _spanning_keys(policy.controller.store, 2)
        remote = [key for key in keys if policy.controller.store.partition_for(key).partition_id != 0]
        txn = _write_transaction("t1", set(remote), set(remote))
        process_initial(policy, txn, now=0.0)
        policy.process_final(txn, now=1.0)
        assert policy.policy_stats.coordinator_round_trips > 0
        assert policy.drain_frame_costs() == (0.0, 0.0)

    def test_batched_flushes_on_window_deadline(self):
        policy = build_policy("batched-2pc", consistency="ms-ia")
        store = policy.controller.store
        remote = [
            key
            for key in _spanning_keys(store, 4)
            if store.partition_for(key).partition_id != 0
        ]
        first = _write_transaction("t1", {remote[0]}, {remote[0]})
        process_initial(policy, first, now=0.0)
        assert policy.policy_stats.commit_batches == 0  # still accumulating
        second = _write_transaction("t2", {remote[0]}, {remote[0]})
        # Far past the window: the pending batch flushes before this stage.
        process_initial(policy, second, now=10.0)
        assert policy.policy_stats.commit_batches == 1
        charge, _ = policy.drain_frame_costs()
        assert charge > 0.0
        # End-of-run commit flushes the remainder.
        assert policy.commit(now=20.0) > 0
        assert policy.policy_stats.commit_batches == 2

    def test_reset_discards_open_coordinator_state(self):
        """A failed edge's pending batch must never flush into (and be
        billed to) a later frame."""
        policy = build_policy("batched-2pc", consistency="ms-ia")
        store = policy.controller.store
        remote = next(
            key
            for key in _spanning_keys(store, 4)
            if store.partition_for(key).partition_id != 0
        )
        txn = _write_transaction("t1", {remote}, {remote})
        process_initial(policy, txn, now=0.0)
        policy.reset()
        assert policy.commit(now=100.0) == 0  # nothing left to flush
        assert policy.policy_stats.commit_batches == 0
        assert policy.drain_frame_costs() == (0.0, 0.0)

    def test_cluster_batch_flushes_match_the_policy_stats(self):
        from repro.cluster import ClusterConfig, ClusterSystem
        from repro.core.config import ConsistencyLevel, CroesusConfig
        from repro.video.library import make_camera_streams

        config = ClusterConfig(
            base=CroesusConfig(seed=2022, consistency=ConsistencyLevel.MS_SR),
            num_edges=4,
            transaction_policy="batched-2pc",
        )
        result = ClusterSystem(config).run(make_camera_streams(4, num_frames=4, seed=2022))
        # One kept (transactions, duration) per coordinator flush, the
        # end-of-run flush included.
        flushes = result.batch_flushes
        assert len(flushes) == result.policy_stats.commit_batches > 0
        assert sum(transactions for transactions, _ in flushes) == (
            result.policy_stats.cross_partition_commits
        )
        assert all(duration > 0.0 for _, duration in flushes)
        assert result.policy_stats.coordinator_round_trips > 0

    def test_before_stage_runs_once_per_section(self):
        class Counting(ImmediatePolicy):
            before_stage_calls = 0

            def _before_stage(self, now):
                self.before_stage_calls += 1

        store = PartitionedStore(4)
        policy = Counting(DistributedMSIAController(store), frozenset({0}))
        keys = set(_spanning_keys(store, 2))
        txn = _write_transaction("t1", keys, keys)
        process_initial(policy, txn, now=0.0)
        policy.process_final(txn, now=1.0)
        assert policy.before_stage_calls == 2
        assert txn.is_committed

    #: ``(flushed at end, commit_batches, cross_partition_commits,
    #: coordinator_round_trips, coordinator_time_s, frame charges billed,
    #: stages billed)`` of the drive below, captured when ``process_initial``
    #: still ran ``_before_stage`` twice.
    BATCHED_PINS = {
        "ms-ia": (1, 9, 46, 50, 0.07484049501270804, 0.06804844823245189, 8),
        "ms-sr": (3, 8, 23, 48, 0.06804844823245189, 0.060252287400925954, 7),
    }

    @pytest.mark.parametrize("consistency", sorted(BATCHED_PINS))
    def test_batched_flush_counts_and_charges_are_pinned(self, consistency):
        policy = build_policy("batched-2pc", consistency=consistency)
        charges = []
        for index in range(24):
            keys = {f"pkey-{index}", f"pkey-{index + 7}", f"pkey-{3 * index + 1}"}
            txn = _write_transaction(f"t{index}", keys, keys)
            process_initial(policy, txn, now=0.02 * index)
            charges.append(policy.drain_frame_costs()[0])
            policy.process_final(txn, now=0.02 * index + 0.013)
            charges.append(policy.drain_frame_costs()[0])
        flushed = policy.commit(now=1.0)
        stats = policy.policy_stats
        assert (
            flushed,
            stats.commit_batches,
            stats.cross_partition_commits,
            stats.coordinator_round_trips,
            stats.coordinator_time_s,
            sum(charges),
            sum(1 for charge in charges if charge),
        ) == self.BATCHED_PINS[consistency]

    def test_immediate_policy_wraps_local_controllers(self):
        from repro.storage.kvstore import KeyValueStore
        from repro.transactions.ms_ia import MSIAController

        controller = MSIAController(KeyValueStore())
        policy = ImmediatePolicy(controller)
        txn = _write_transaction("t1", {"a"}, {"b"})
        process_initial(policy, txn, now=0.0)
        policy.process_final(txn, now=1.0)
        assert controller.store.read("b") == "t1-final"
        assert policy.policy_stats.coordinator_round_trips == 0


# -- priority serving ---------------------------------------------------------
class TestPriorityServing:
    """Initial stages preempt queued final stages (engine priority)."""

    def test_registered_scenario_uses_priority_discipline(self):
        from repro.experiments import get_scenario

        assert get_scenario("cluster-priority").edge_discipline == "priority"

    def test_priority_lowers_initial_stage_latency(self):
        from repro.experiments import get_scenario

        priority_spec = get_scenario("cluster-priority")
        fifo_spec = priority_spec.with_(edge_discipline="fifo")
        priority_report = run(priority_spec)
        fifo_report = run(fifo_spec)
        # Initials overtake queued finals: the initial response gets
        # faster, and the displaced finals pay for it.
        assert (
            priority_report.latency["queue_delay_ms"] < fifo_report.latency["queue_delay_ms"]
        )
        assert priority_report.latency["initial_ms"] < fifo_report.latency["initial_ms"]
        assert (
            priority_report.latency["final_queue_delay_ms"]
            > fifo_report.latency["final_queue_delay_ms"]
        )
