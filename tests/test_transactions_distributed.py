"""Tests for multi-partition multi-stage transactions (paper §4.5)."""

import pytest

from repro.storage.locks import LockMode
from repro.storage.partition import PartitionedStore
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.checker import check_ms_ia, check_ms_sr
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


class TestRoutesNeverOutliveASection:
    """A section routes its keys afresh: re-sharding between a transaction's
    two sections must re-home the final section's locks, reads and writes."""

    @pytest.mark.parametrize(
        "controller_cls, check",
        [(DistributedMSIAController, check_ms_ia), (DistributedTwoStage2PL, check_ms_sr)],
    )
    def test_final_section_follows_a_rehomed_slot(self, controller_cls, check):
        store = PartitionedStore(num_partitions=2)
        key_of_slot: dict[int, str] = {}
        index = 0
        while len(key_of_slot) < 2:
            key = f"key-{index}"
            key_of_slot.setdefault(store.partition_for(key).partition_id, key)
            index += 1
        stay, moved = key_of_slot[0], key_of_slot[1]
        keys = frozenset({stay, moved})

        def initial(ctx):
            for key in (stay, moved):
                ctx.write(key, (ctx.read(key, default=0) or 0) + 1)

        def final(ctx):
            for key in (stay, moved):
                ctx.write(key, ctx.read(key) + 10)

        rwset = ReadWriteSet(reads=keys, writes=keys)
        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=rwset),
            final=SectionSpec(body=final, rwset=rwset),
        )
        history = History()
        controller = controller_cls(store, history=history)
        controller.process_initial(txn, now=1.0)

        # Slot 0 folds into partition 1, then partition 1's upper slot (slot 1)
        # splits off to a brand-new partition 2.
        store.merge(0, 1)
        new_partition = store.split(1)
        assert new_partition.partition_id == 2
        assert store.partition_for(stay).partition_id == 1
        assert store.partition_for(moved).partition_id == 2

        controller.process_final(txn, now=2.0)
        assert txn.is_committed
        assert new_partition.store.read(moved) == 11
        assert store.partition(1).store.read(stay) == 11
        assert ("t1", moved, 11) in [
            (record.transaction_id, record.key, record.value)
            for record in new_partition.wal.records()
        ]
        assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())
        assert check(history)
