"""Tests for the multi-stage transaction model and section context."""

import pytest

from repro.storage.wal import UndoLog
from repro.transactions.exceptions import SectionOrderError
from repro.transactions.model import (
    MultiStageTransaction,
    RowSection,
    SectionContext,
    SectionKind,
    SectionSpec,
    TransactionStatus,
)
from repro.transactions.ops import OperationKind, ReadWriteSet


def _transaction(txn_id: str = "t1", reads=(), writes=(), final_writes=()) -> MultiStageTransaction:
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(
            body=lambda ctx: None,
            rwset=ReadWriteSet(reads=frozenset(reads), writes=frozenset(writes)),
        ),
        final=SectionSpec(
            body=lambda ctx: None, rwset=ReadWriteSet(writes=frozenset(final_writes))
        ),
    )


class TestSectionContext:
    def test_read_and_write_recorded(self, store):
        store.write("x", 10)
        ctx = SectionContext("t1", SectionKind.INITIAL, store)
        assert ctx.read("x") == 10
        ctx.write("y", 20)
        kinds = [op.kind for op in ctx.operations]
        assert kinds == [OperationKind.READ, OperationKind.WRITE]
        assert store.read("y") == 20

    def test_read_default(self, store):
        ctx = SectionContext("t1", SectionKind.INITIAL, store)
        assert ctx.read("missing", default="d") == "d"

    def test_delete_writes_tombstone(self, store):
        store.write("x", 1)
        ctx = SectionContext("t1", SectionKind.INITIAL, store)
        ctx.delete("x")
        assert store.read("x") is None

    def test_write_records_undo_image(self, store):
        log = UndoLog(store)
        store.write("x", "before")
        ctx = SectionContext("t1", SectionKind.INITIAL, store, undo_log=log)
        ctx.write("x", "after")
        assert log.records_for("t1")[0].before == "before"

    def test_handoff_between_sections(self, store):
        initial = SectionContext("t1", SectionKind.INITIAL, store)
        initial.put_handoff("key", "value")
        final = SectionContext("t1", SectionKind.FINAL, store, handoff=initial.handoff)
        assert final.get_handoff("key") == "value"
        assert final.get_handoff("missing", 3) == 3

    def test_final_section_cannot_put_handoff(self, store):
        ctx = SectionContext("t1", SectionKind.FINAL, store)
        with pytest.raises(SectionOrderError):
            ctx.put_handoff("k", 1)

    def test_apologies_collected(self, store):
        ctx = SectionContext("t1", SectionKind.FINAL, store)
        ctx.apologize("sorry")
        ctx.apologize("again")
        assert ctx.apologies == ("sorry", "again")

    def test_retract_initial_effects(self, store):
        log = UndoLog(store)
        initial = SectionContext("t1", SectionKind.INITIAL, store, undo_log=log)
        initial.write("x", "dirty")
        final = SectionContext("t1", SectionKind.FINAL, store, undo_log=log)
        restored = final.retract_initial_effects()
        assert restored == ["x"]
        assert store.read("x") is None
        assert final.retracted

    def test_retract_twice_is_noop(self, store):
        log = UndoLog(store)
        ctx = SectionContext("t1", SectionKind.FINAL, store, undo_log=log)
        assert ctx.retract_initial_effects() == []
        assert ctx.retract_initial_effects() == []

    def test_executed_rwset(self, store):
        store.write("a", 1)
        ctx = SectionContext("t1", SectionKind.INITIAL, store)
        ctx.read("a")
        ctx.write("b", 2)
        rwset = ctx.executed_rwset()
        assert rwset.reads == {"a"}
        assert rwset.writes == {"b"}


class TestMultiStageTransactionLifecycle:
    def test_initial_then_final_commit(self):
        txn = _transaction()
        assert txn.status is TransactionStatus.PENDING
        txn.mark_initial_committed("result", {"h": 1}, now=1.0)
        assert txn.status is TransactionStatus.INITIAL_COMMITTED
        assert txn.initial_result == "result"
        assert txn.handoff == {"h": 1}
        txn.mark_committed("final", ("sorry",), now=2.0)
        assert txn.is_committed
        assert txn.apologies == ("sorry",)
        assert txn.initial_commit_time == 1.0
        assert txn.final_commit_time == 2.0

    def test_cannot_final_commit_before_initial(self):
        txn = _transaction()
        with pytest.raises(SectionOrderError):
            txn.mark_committed(None, (), now=0.0)

    def test_cannot_initial_commit_twice(self):
        txn = _transaction()
        txn.mark_initial_committed(None, {}, now=0.0)
        with pytest.raises(SectionOrderError):
            txn.mark_initial_committed(None, {}, now=1.0)

    def test_abort_before_initial_commit(self):
        txn = _transaction()
        txn.mark_aborted()
        assert txn.is_aborted

    def test_cannot_abort_after_initial_commit(self):
        """The paper's guarantee: an initially committed transaction must finish."""
        txn = _transaction()
        txn.mark_initial_committed(None, {}, now=0.0)
        with pytest.raises(SectionOrderError):
            txn.mark_aborted()

    def test_combined_rwset(self):
        txn = _transaction(reads={"a"}, writes={"b"}, final_writes={"c"})
        combined = txn.combined_rwset()
        assert combined.reads == {"a"}
        assert combined.writes == {"b", "c"}

    def test_conflicts_with_considers_both_sections(self):
        first = _transaction("t1", writes={"x"})
        second = _transaction("t2", final_writes={"x"})
        third = _transaction("t3", reads={"y"})
        assert first.conflicts_with(second)
        assert not first.conflicts_with(third)

    def test_noop_section(self, store):
        spec = SectionSpec.noop()
        assert spec.body(SectionContext("t", SectionKind.FINAL, store)) is None
        assert spec.rwset.keys == frozenset()

    def test_a_row_section_is_its_own_declaration_and_its_class_is_the_body(self, store):
        class Copy(RowSection):
            __slots__ = ()

            def body(self, ctx):
                for source, target in zip(self.read_keys, self.write_keys):
                    ctx.write(target, ctx.read(source))
                return self.row

        store.write("a", 1)
        row = ("a", "b", "c")
        txn = MultiStageTransaction(
            transaction_id="t1",
            initial=Copy(slice(0, 1), slice(1, 2), row),
            final=Copy(slice(1, 2), slice(2, 3), row),
        )
        assert txn.initial.rwset is txn.initial
        assert txn.initial.rwset == ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        assert txn.combined_rwset() == ReadWriteSet(
            reads=frozenset({"a", "b"}), writes=frozenset({"b", "c"})
        )
        assert txn.initial.body(SectionContext("t1", SectionKind.INITIAL, store)) == row
        assert txn.final.body(SectionContext("t1", SectionKind.FINAL, store)) == row
        assert store.read("c") == 1

    def test_a_builder_can_hand_over_the_combined_declaration(self):
        declared = ReadWriteSet(writes=frozenset({"b", "c"}))
        txn = _transaction(writes={"b"}, final_writes={"c"})
        assert txn.combined_rwset() == declared and txn.combined_rwset() is txn.combined_rwset()
        handed = MultiStageTransaction("t2", txn.initial, txn.final, combined=declared)
        assert handed.combined_rwset() is declared
