"""Tests for the MS-IA controller (invariant confluence with apologies)."""

import pytest

from repro.transactions.checker import check_ms_ia
from repro.transactions.exceptions import (
    InvariantViolation,
    SectionOrderError,
    TransactionAborted,
)
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionSpec, TransactionStatus
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ops import ReadWriteSet


def _simple_transaction(txn_id: str, key: str = "x") -> MultiStageTransaction:
    def initial(ctx):
        value = ctx.read(key, default=0) or 0
        ctx.write(key, value + 1)
        return value + 1

    def final(ctx):
        return ctx.read(key, default=0)

    rwset = ReadWriteSet(reads=frozenset({key}), writes=frozenset({key}))
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body=initial, rwset=rwset),
        final=SectionSpec(body=final, rwset=ReadWriteSet(reads=frozenset({key}))),
    )


class TestMSIAController:
    def test_full_lifecycle(self, store):
        controller = MSIAController(store)
        txn = _simple_transaction("t1")
        controller.process_initial(txn, now=0.0)
        assert txn.status is TransactionStatus.INITIAL_COMMITTED
        controller.process_final(txn, now=1.0)
        assert txn.is_committed
        assert store.read("x") == 1

    def test_locks_released_after_initial_section(self, store):
        """Unlike MS-SR, a conflicting transaction can run between the
        sections of another transaction."""
        controller = MSIAController(store)
        first = _simple_transaction("t1")
        controller.process_initial(first, now=0.0)

        second = _simple_transaction("t2")
        controller.process_initial(second, now=0.1)  # must NOT abort
        controller.process_final(second, now=0.2)
        controller.process_final(first, now=1.0)
        assert store.read("x") == 2
        assert controller.stats.aborts == 0

    def test_lock_hold_time_is_short(self, store):
        controller = MSIAController(store)
        txn = _simple_transaction("t1")
        controller.process_initial(txn, now=0.0)
        controller.process_final(txn, now=5.0)
        # Locks are acquired and released within each section at the same
        # timestamp, so the measured hold time stays ~0, not 5 seconds.
        assert controller.lock_manager.average_hold_time() == pytest.approx(0.0)

    def test_final_without_initial_rejected(self, store):
        controller = MSIAController(store)
        with pytest.raises(SectionOrderError):
            controller.process_final(_simple_transaction("t1"))

    def test_cannot_process_initial_twice(self, store):
        controller = MSIAController(store)
        txn = _simple_transaction("t1")
        controller.process_initial(txn)
        with pytest.raises(SectionOrderError):
            controller.process_initial(txn)
        # The refused repeat did not increment the counter a second time.
        assert store.read("x") == 1

    def test_cannot_process_final_twice(self, store):
        controller = MSIAController(store)
        txn = _simple_transaction("t1")
        controller.process_initial(txn)
        controller.process_final(txn)
        with pytest.raises(SectionOrderError):
            controller.process_final(txn)
        assert txn.is_committed

    def test_apology_recorded_on_transaction(self, store):
        controller = MSIAController(store)

        def initial(ctx):
            ctx.write("k", "guess")

        def final(ctx):
            ctx.apologize("the guess was wrong")

        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"k"}))),
            final=SectionSpec(body=final),
        )
        controller.process_initial(txn)
        controller.process_final(txn)
        assert txn.apologies == ("the guess was wrong",)

    def test_invariant_violation_triggers_retraction(self, store):
        controller = MSIAController(store)

        def initial(ctx):
            ctx.write("balance", -10)

        def final(ctx):
            raise InvariantViolation("non-negative-balance")

        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"balance"}))),
            final=SectionSpec(body=final, rwset=ReadWriteSet(writes=frozenset({"balance"}))),
        )
        controller.process_initial(txn)
        controller.process_final(txn)
        assert txn.is_committed  # the transaction still finally-commits...
        assert store.read("balance") is None  # ...but its effect was retracted
        assert txn.apologies  # ...and an apology was issued

    def test_registered_invariant_checked_after_final(self, store):
        controller = MSIAController(store)
        controller.register_invariant(
            "x-non-negative", lambda s: (s.read("x", default=0) or 0) >= 0
        )

        def initial(ctx):
            ctx.write("x", -5)

        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=SectionSpec(body=initial, rwset=ReadWriteSet(writes=frozenset({"x"}))),
            final=SectionSpec.noop(),
        )
        controller.process_initial(txn)
        controller.process_final(txn)
        assert store.read("x") is None  # write retracted by the post-commit check
        assert any("x-non-negative" in apology for apology in txn.apologies)

    def test_initial_lock_denial_aborts(self, store):
        from repro.storage.locks import LockMode

        controller = MSIAController(store)
        # Hold the lock externally to force a denial.
        controller.lock_manager.try_acquire("someone-else", "x", LockMode.EXCLUSIVE)
        txn = _simple_transaction("t1")
        with pytest.raises(TransactionAborted):
            controller.process_initial(txn)
        assert txn.is_aborted

    def test_final_lock_denial_keeps_transaction_pending(self, store):
        from repro.storage.locks import LockMode

        controller = MSIAController(store)
        txn = _simple_transaction("t1")
        controller.process_initial(txn)
        controller.lock_manager.try_acquire("someone-else", "x", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionAborted):
            controller.process_final(txn)
        # The final section remains pending so it can be retried later.
        assert "t1" in controller.pending_finals
        controller.lock_manager.release_all("someone-else")
        controller.process_final(txn)
        assert txn.is_committed

    def test_history_satisfies_ms_ia(self, store):
        history = History()
        controller = MSIAController(store, history=history)
        transactions = [_simple_transaction(f"t{i}") for i in range(4)]
        for i, txn in enumerate(transactions):
            controller.process_initial(txn, now=float(i))
        for i, txn in enumerate(reversed(transactions)):
            controller.process_final(txn, now=10.0 + i)
        assert check_ms_ia(history)

    def test_cascade_retract_reports_dependents(self, store):
        controller = MSIAController(store)
        first = _simple_transaction("t1", key="shared")
        second = _simple_transaction("t2", key="shared")
        controller.process_initial(first)
        controller.process_initial(second)
        dependents = controller.cascade_retract("t1")
        assert dependents == {"t2"}
