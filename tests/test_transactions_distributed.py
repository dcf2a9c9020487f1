"""Tests for multi-partition multi-stage transactions (paper §4.5)."""

import pytest

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockMode
from repro.storage.partition import PartitionedStore, SectionRoutes
from repro.transactions import distributed as distributed_module
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.checker import check_ms_sr
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionSpec, TransactionStatus
from repro.transactions.ops import ReadWriteSet


def _spanning_keys(store: PartitionedStore, count: int) -> list[str]:
    """Pick keys that land on at least two different partitions."""
    keys: list[str] = []
    seen_partitions: set[int] = set()
    index = 0
    while len(keys) < count:
        key = f"key-{index}"
        partition = store.partition_for(key).partition_id
        if partition not in seen_partitions or len(seen_partitions) > 1:
            keys.append(key)
            seen_partitions.add(partition)
        index += 1
    return keys


def _transfer_transaction(txn_id: str, source: str, target: str) -> MultiStageTransaction:
    def initial(ctx):
        balance = ctx.read(source, default=100) or 100
        ctx.write(source, balance - 10)
        ctx.write(target, (ctx.read(target, default=0) or 0) + 10)
        return balance

    def final(ctx):
        corrected_target = ctx.labels if isinstance(ctx.labels, str) else target
        if corrected_target != target:
            ctx.write(target, (ctx.read(target, default=0) or 0) - 10)
            ctx.write(corrected_target, (ctx.read(corrected_target, default=0) or 0) + 10)
            ctx.apologize(f"moved 10 from {target} to {corrected_target}")

    keys = frozenset({source, target})
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body=initial, rwset=ReadWriteSet(reads=keys, writes=keys)),
        final=SectionSpec(
            body=final,
            rwset=ReadWriteSet(reads=keys | {"key-extra"}, writes=keys | {"key-extra"}),
        ),
    )


@pytest.fixture
def partitioned_store() -> PartitionedStore:
    return PartitionedStore(num_partitions=4)


class TestDistributedMSIA:
    def test_full_lifecycle_spanning_partitions(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        assert txn.status is TransactionStatus.INITIAL_COMMITTED
        assert partitioned_store.read(source) == 90
        controller.process_final(txn, labels=target)
        assert txn.is_committed
        assert partitioned_store.read(target) == 10

    def test_two_phase_commit_round_per_section(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        controller.process_final(txn, labels=target)
        record = controller.commit_records["t1"]
        assert len(record.rounds) == 2  # one atomic commit per section
        assert len(record.partitions_touched) >= 1

    def test_final_section_correction_across_partitions(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        controller.process_final(txn, labels="key-extra")
        assert partitioned_store.read(target) == 0
        assert partitioned_store.read("key-extra") == 10
        assert txn.apologies

    def test_remote_lock_denial_aborts_initial(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        # Another holder locks the remote key.
        partition = partitioned_store.partition_for(target)
        partition.locks.try_acquire("other", target, LockMode.EXCLUSIVE)

        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        with pytest.raises(TransactionAborted):
            controller.process_initial(txn)
        assert txn.is_aborted
        # No partial writes anywhere.
        assert partitioned_store.read(source, default=None) is None

    def test_locks_released_after_each_section(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedMSIAController(partitioned_store)
        first = _transfer_transaction("t1", source, target)
        second = _transfer_transaction("t2", source, target)
        controller.process_initial(first)
        # A conflicting transaction can run between t1's sections.
        controller.process_initial(second)
        controller.process_final(second, labels=target)
        controller.process_final(first, labels=target)
        assert first.is_committed and second.is_committed
        assert partitioned_store.read(source) == 80

    def test_final_lock_denial_keeps_the_final_pending(self, partitioned_store):
        """A denied final lock pass leaves the final pending, as a failed
        final atomic commit does: a retry after the holder releases commits."""
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        # Between the sections another holder takes a key only the final locks.
        partition = partitioned_store.partition_for("key-extra")
        assert partition.locks.try_acquire("other", "key-extra", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionAborted):
            controller.process_final(txn, labels=target)
        assert controller.pending_finals == ("t1",)
        assert txn.status is TransactionStatus.INITIAL_COMMITTED

        partition.locks.release("other", "key-extra")
        controller.process_final(txn, labels=target)
        assert txn.is_committed
        assert controller.pending_finals == ()
        assert partitioned_store.read(target) == 10

    def test_final_without_initial_rejected(self, partitioned_store):
        controller = DistributedMSIAController(partitioned_store)
        txn = _transfer_transaction("t1", "a", "b")
        with pytest.raises(SectionOrderError):
            controller.process_final(txn)

    def test_read_your_own_writes_within_section(self, partitioned_store):
        def initial(ctx):
            ctx.write("x", 5)
            return ctx.read("x")

        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"x"}))),
            final=SectionSpec.noop(),
        )
        controller = DistributedMSIAController(partitioned_store)
        assert controller.process_initial(txn) == 5


class TestDistributedTwoStage2PL:
    def test_full_lifecycle(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedTwoStage2PL(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        # MS-SR defers the atomic commit: nothing visible before the final commit.
        assert partitioned_store.read(source, default=None) is None
        controller.process_final(txn, labels=target)
        assert txn.is_committed
        assert partitioned_store.read(source) == 90
        assert partitioned_store.read(target) == 10

    def test_single_atomic_commit_round(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedTwoStage2PL(partitioned_store)
        txn = _transfer_transaction("t1", source, target)
        controller.process_initial(txn)
        controller.process_final(txn, labels=target)
        record = controller.commit_records["t1"]
        assert len(record.rounds) == 1  # 2PC only at the end of the final section

    def test_conflicting_transaction_aborts_while_locks_held(self, partitioned_store):
        source, target = _spanning_keys(partitioned_store, 2)
        controller = DistributedTwoStage2PL(partitioned_store)
        first = _transfer_transaction("t1", source, target)
        second = _transfer_transaction("t2", source, target)
        controller.process_initial(first)
        with pytest.raises(TransactionAborted):
            controller.process_initial(second)
        assert second.is_aborted
        controller.process_final(first, labels=target)
        assert first.is_committed

    def test_final_section_sees_initial_writes(self, partitioned_store):
        observed = {}

        def initial(ctx):
            ctx.write("x", "from-initial")

        def final(ctx):
            observed["value"] = ctx.read("x")

        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"x"}))),
            final=SectionSpec(body=final, rwset=ReadWriteSet(reads=frozenset({"x"}))),
        )
        controller = DistributedTwoStage2PL(partitioned_store)
        controller.process_initial(txn)
        controller.process_final(txn)
        assert observed["value"] == "from-initial"


class TestAPlanAcrossRehoming:
    """A key's partition is fixed for the store's life, and re-homing a
    partition (a transfer, a promotion) swaps its store in place: MS-SR's
    final section reads, commits and releases over its admission's plan,
    and MS-IA's final takes its locks through a plan of its own."""

    @staticmethod
    def _transaction(store: PartitionedStore):
        candidates = [f"key-{i}" for i in range(100)]
        keys = tuple(
            next(key for key in candidates if store.partition_for(key).partition_id == pid)
            for pid in store.partition_ids()
        )

        def initial(ctx):
            for key in keys:
                ctx.write(key, (ctx.read(key, default=0) or 0) + 1)

        def final(ctx):
            for key in keys:
                ctx.write(key, ctx.read(key) + 10)

        rwset = ReadWriteSet(reads=frozenset(keys), writes=frozenset(keys))
        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=rwset),
            final=SectionSpec(body=final, rwset=rwset),
        )
        return keys, txn

    @staticmethod
    def _rehome(store: PartitionedStore, how: str) -> None:
        for pid in store.partition_ids():
            partition = store.partition(pid)
            if how == "transfer":
                store.transfer_partition(pid)
            else:
                standby = KeyValueStore()
                partition.wal.replay(standby)
                partition.crash()
                partition.promote(standby)

    @pytest.mark.parametrize("how", ["transfer", "promotion"])
    def test_an_ms_sr_final_writes_into_the_current_store(self, how):
        store = PartitionedStore(num_partitions=2)
        keys, txn = self._transaction(store)
        history = History()
        controller = DistributedTwoStage2PL(store, history=history)
        controller.process_initial(txn, now=1.0)

        replaced = [store.partition(pid).store for pid in store.partition_ids()]
        self._rehome(store, how)
        current = [store.partition(pid).store for pid in store.partition_ids()]
        assert all(new is not old for new, old in zip(current, replaced))

        controller.process_final(txn, now=2.0)
        assert txn.is_committed
        for pid, key in enumerate(keys):
            assert current[pid].read(key) == 11
            assert replaced[pid].read(key, default=None) is None
            assert ("t1", key, 11) in [
                (record.transaction_id, record.key, record.value)
                for record in store.partition(pid).wal.records()
            ]
        assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())
        assert check_ms_sr(history)

    @pytest.mark.parametrize("how", ["none", "transfer", "promotion", "crash"])
    def test_an_aborted_ms_sr_final_releases_over_its_plan(self, how):
        """``abort_pending`` (the replica-crash path) releases the locks an
        MS-SR final has held since its admission over the admission's plan,
        whatever happened to the partitions' stores in between, and none of
        its buffered writes reaches a store or a log."""
        store = PartitionedStore(num_partitions=2)
        keys, txn = self._transaction(store)
        controller = DistributedTwoStage2PL(store)
        controller.process_initial(txn, now=1.0)
        assert all(store.partition_for(key).locks.holds("t1", key) for key in keys)
        if how == "crash":
            for pid in store.partition_ids():
                store.partition(pid).crash()
        elif how != "none":
            self._rehome(store, how)

        assert controller.abort_pending(now=2.0) == ("t1",)
        assert txn.is_aborted
        assert controller.pending_finals == ()
        assert controller.stats.aborts == 1
        for pid, key in enumerate(keys):
            partition = store.partition(pid)
            assert partition.locks.is_quiescent
            assert len(partition.wal) == 0
            assert partition.store.read(key, default=None) is None
        with pytest.raises(SectionOrderError):
            controller.process_final(txn, now=3.0)

    def test_an_ms_sr_final_on_a_crashed_partition_aborts_and_releases(self):
        """A participant that fails between the sections votes NO in the
        final's single 2PC round: nothing is applied on the live partition
        either, and every lock the plan routed is released."""
        store = PartitionedStore(num_partitions=2)
        keys, txn = self._transaction(store)
        controller = DistributedTwoStage2PL(store)
        controller.process_initial(txn, now=1.0)
        store.partition(1).crash()

        with pytest.raises(TransactionAborted):
            controller.process_final(txn, now=2.0)
        assert store.failure_aborts == 1
        assert controller.stats.aborts == 1
        assert controller.pending_finals == ()
        assert store.read(keys[0], default=None) is None
        assert len(store.partition(0).wal) == 0
        assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())

    @pytest.mark.parametrize("cause", ["conflict", "unavailable"])
    def test_a_denied_ms_sr_admission_keeps_no_plan(self, cause):
        """A denied admission gives back what its lock pass granted, with no
        tenure recorded, and keeps neither a plan nor buffered writes; it is
        a failure abort only when a partition was unavailable."""
        store = PartitionedStore(num_partitions=2)
        keys, txn = self._transaction(store)
        if cause == "conflict":
            store.partition(1).locks.try_acquire("other", keys[1], LockMode.EXCLUSIVE)
        else:
            store.partition(1).crash()
        controller = DistributedTwoStage2PL(store)

        with pytest.raises(TransactionAborted):
            controller.process_initial(txn, now=1.0)
        assert txn.is_aborted
        assert controller._buffered == {}
        assert controller.pending_finals == ()
        assert controller.stats.aborts == 1
        assert store.failure_aborts == int(cause == "unavailable")
        for pid in store.partition_ids():
            locks = store.partition(pid).locks
            assert locks.held_keys("t1") == frozenset()
            assert locks.average_hold_time() == 0.0
        assert store.partition(0).locks.is_quiescent

    @pytest.mark.parametrize(
        "controller_cls, plans",
        [(DistributedMSIAController, 2), (DistributedTwoStage2PL, 1)],
    )
    def test_only_an_ms_ia_final_routes_afresh(self, monkeypatch, controller_cls, plans):
        built: list[SectionRoutes] = []

        class CountingRoutes(SectionRoutes):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(distributed_module, "SectionRoutes", CountingRoutes)
        store = PartitionedStore(num_partitions=2)
        keys, txn = self._transaction(store)
        controller = controller_cls(store)
        controller.process_initial(txn, now=1.0)
        self._rehome(store, "transfer")
        controller.process_final(txn, now=2.0)

        assert txn.is_committed
        assert len(built) == plans
        assert all(store.read(key) == 11 for key in keys)
        assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())
