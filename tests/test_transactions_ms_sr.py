"""Tests for the Two-Stage 2PL (MS-SR) controller."""

import pytest

from repro.storage.kvstore import KeyValueStore
from repro.transactions.checker import check_ms_sr
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import (
    MultiStageTransaction,
    SectionSpec,
    TransactionStatus,
)
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.ops import ReadWriteSet


def _increment_transaction(txn_id: str, key: str = "x") -> MultiStageTransaction:
    """The §4.2 example: read in the initial section, write in the final."""

    def initial(ctx):
        value = ctx.read(key, default=0) or 0
        ctx.put_handoff("value", value)
        return value

    def final(ctx):
        ctx.write(key, ctx.get_handoff("value") + 1)
        return ctx.get_handoff("value") + 1

    rwset = ReadWriteSet(reads=frozenset({key}), writes=frozenset({key}))
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body=initial, rwset=ReadWriteSet(reads=frozenset({key}))),
        final=SectionSpec(body=final, rwset=rwset),
    )


def _lock_state(locks):
    """A lock manager's grants, holders' key sets and tenure totals."""
    table = {key: (entry[0], dict(entry[1])) for key, entry in locks._table.items()}
    held_by = {holder: set(keys) for holder, keys in locks._held_by.items()}
    return table, held_by, locks._tenures, locks._hold_total


class TestTwoStage2PL:
    def test_full_lifecycle_commits(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn, now=0.0)
        assert txn.status is TransactionStatus.INITIAL_COMMITTED
        controller.process_final(txn, now=1.0)
        assert txn.is_committed
        assert store.read("x") == 1

    def test_locks_held_until_final_commit(self, store):
        controller = TwoStage2PL(store)
        first = _increment_transaction("t1")
        controller.process_initial(first, now=0.0)

        # A conflicting transaction cannot even start its initial section,
        # and its denied admission leaves the lock table, every holder's
        # key set and the tenure totals as they were.
        locks = controller.lock_manager
        before = _lock_state(locks)
        second = _increment_transaction("t2")
        with pytest.raises(TransactionAborted):
            controller.process_initial(second, now=0.5)
        assert second.is_aborted
        assert _lock_state(locks) == before
        assert "t2" not in locks._held_by

        controller.process_final(first, now=1.0)
        # After t1's final commit the locks are free again.
        third = _increment_transaction("t3")
        controller.process_initial(third, now=2.0)
        controller.process_final(third, now=3.0)
        assert store.read("x") == 2

    def test_abort_when_final_section_locks_unavailable(self, store):
        controller = TwoStage2PL(store)
        blocker = _increment_transaction("blocker", key="y")
        controller.process_initial(blocker, now=0.0)

        # This transaction reads z in its initial section but needs y in its
        # final section, which the blocker holds: it must abort before
        # initial commit (never exposing a response it cannot honour).
        def initial(ctx):
            return ctx.read("z", default=0)

        def final(ctx):
            ctx.write("y", 1)

        txn = MultiStageTransaction(
            transaction_id="t2",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(reads=frozenset({"z"}))),
            final=SectionSpec(body=final, rwset=ReadWriteSet(writes=frozenset({"y"}))),
        )
        with pytest.raises(TransactionAborted):
            controller.process_initial(txn, now=0.5)
        assert txn.is_aborted
        assert controller.stats.aborts == 1

    def test_aborted_initial_section_writes_are_undone(self, store):
        controller = TwoStage2PL(store)
        blocker = _increment_transaction("blocker", key="y")
        controller.process_initial(blocker, now=0.0)

        def initial(ctx):
            ctx.write("scratch", "dirty")

        def final(ctx):
            ctx.write("y", 1)

        txn = MultiStageTransaction(
            transaction_id="t2",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"scratch"}))),
            final=SectionSpec(body=final, rwset=ReadWriteSet(writes=frozenset({"y"}))),
        )
        with pytest.raises(TransactionAborted):
            controller.process_initial(txn, now=0.5)
        assert store.read("scratch", default=None) is None

    def test_no_lost_update_anomaly(self, store):
        """Two increments must both take effect (the §4.2 anomaly is impossible)."""
        controller = TwoStage2PL(store)
        outcomes = []
        for i in range(2):
            txn = _increment_transaction(f"t{i}")
            try:
                controller.process_initial(txn, now=float(i))
                controller.process_final(txn, now=float(i) + 0.5)
                outcomes.append("committed")
            except TransactionAborted:
                outcomes.append("aborted")
        committed = outcomes.count("committed")
        assert store.read("x", default=0) == committed

    def test_final_without_initial_rejected(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        with pytest.raises(SectionOrderError):
            controller.process_final(txn)

    def test_cannot_process_initial_twice(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn)
        with pytest.raises(SectionOrderError):
            controller.process_initial(txn)

    def test_cannot_process_final_twice(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn)
        controller.process_final(txn)
        with pytest.raises(SectionOrderError):
            controller.process_final(txn)
        assert store.read("x") == 1

    def test_history_satisfies_ms_sr(self, store):
        history = History()
        controller = TwoStage2PL(store, history=history)
        now = 0.0
        for i in range(5):
            txn = _increment_transaction(f"t{i}")
            try:
                controller.process_initial(txn, now=now)
                now += 1.0
                controller.process_final(txn, now=now)
                now += 1.0
            except TransactionAborted:
                now += 1.0
        assert check_ms_sr(history)

    def test_lock_hold_duration_spans_both_sections(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn, now=0.0)
        controller.process_final(txn, now=1.5)
        assert controller.lock_manager.average_hold_time() == pytest.approx(1.5)

    def test_stats_counting(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn)
        controller.process_final(txn)
        assert controller.stats.initial_commits == 1
        assert controller.stats.final_commits == 1
        assert controller.stats.abort_rate == 0.0

    def test_pending_finals_tracking(self, store):
        controller = TwoStage2PL(store)
        txn = _increment_transaction("t1")
        controller.process_initial(txn)
        assert controller.pending_finals == ("t1",)
        controller.process_final(txn)
        assert controller.pending_finals == ()
