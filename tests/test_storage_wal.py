"""Tests for the undo log and the redo write-ahead log."""

import gc
import weakref

import pytest

from repro.storage.kvstore import KeyValueStore
from repro.storage.wal import UndoLog, WriteAheadLog, restore_from_checkpoint


class TestUndoLog:
    def test_log_write_captures_before_image(self, store):
        store.write("k", "before")
        log = UndoLog(store)
        assert log.log_write("t1", "k", "after") is None
        (record,) = log.records_for("t1")
        assert record.before == "before"
        assert record.after == "after"

    def test_before_image_of_new_key_is_none(self, store):
        log = UndoLog(store)
        log.log_write("t1", "new", 1)
        assert log.records_for("t1")[0].before is None

    def test_undo_restores_values_in_reverse_order(self, store):
        log = UndoLog(store)
        store.write("k", "v0")
        log.log_write("t1", "k", "v1")
        store.write("k", "v1", writer="t1")
        log.log_write("t1", "k", "v2")
        store.write("k", "v2", writer="t1")

        log.undo("t1")
        assert store.read("k") == "v0"

    def test_undo_unknown_transaction_is_noop(self, store):
        log = UndoLog(store)
        assert log.undo("missing") == []

    def test_undo_returns_undone_records(self, store):
        log = UndoLog(store)
        log.log_write("t1", "a", 1)
        store.write("a", 1, writer="t1")
        log.log_write("t1", "b", 2)
        store.write("b", 2, writer="t1")
        undone = log.undo("t1")
        assert [record.key for record in undone] == ["b", "a"]

    def test_forget_discards_records(self, store):
        log = UndoLog(store)
        log.log_write("t1", "k", 1)
        store.write("k", 1, writer="t1")
        log.forget("t1")
        log.undo("t1")
        assert store.read("k") == 1  # nothing undone

    def test_touched_keys(self, store):
        log = UndoLog(store)
        log.log_write("t1", "a", 1)
        log.log_write("t1", "b", 2)
        assert log.touched_keys("t1") == {"a", "b"}
        assert log.touched_keys("t2") == frozenset()

    def test_dependents_finds_overlapping_transactions(self, store):
        log = UndoLog(store)
        log.log_write("t1", "shared", 1)
        log.log_write("t2", "shared", 2)
        log.log_write("t3", "other", 3)
        assert log.dependents("t1") == {"t2"}

    def test_records_for_returns_in_order(self, store):
        log = UndoLog(store)
        log.log_write("t1", "a", 1)
        log.log_write("t1", "b", 2)
        assert [r.key for r in log.records_for("t1")] == ["a", "b"]


class TestWriteAheadLog:
    def test_lsns_are_dense_and_monotonic(self):
        wal = WriteAheadLog()
        lsns = [wal.append(f"t{i}", f"k{i}", i) for i in range(5)]
        assert lsns == [1, 2, 3, 4, 5]
        records = wal.records()
        assert [record.lsn for record in records] == [1, 2, 3, 4, 5]
        assert [(r.transaction_id, r.key, r.value) for r in records] == [
            (f"t{i}", f"k{i}", i) for i in range(5)
        ]
        assert wal.last_lsn == 5
        assert len(wal) == 5

    def test_records_since_returns_the_tail(self):
        wal = WriteAheadLog()
        for index in range(5):
            wal.append("t", f"k{index}", index)
        tail = wal.records_since(3)
        assert [record.lsn for record in tail] == [4, 5]
        assert wal.records_since(5) == ()
        assert len(wal.records_since(0)) == 5

    def test_checkpoint_covers_the_current_lsn(self):
        wal = WriteAheadLog()
        wal.append("t1", "a", 1)
        checkpoint = wal.take_checkpoint({"a": 1})
        assert checkpoint.lsn == 1
        assert checkpoint.num_keys == 1
        assert wal.latest_checkpoint is checkpoint
        wal.append("t2", "b", 2)
        # Checkpoints do not consume LSNs.
        assert wal.last_lsn == 2

    def test_three_checkpoints_keep_one_alive(self):
        """A recovery restores only the newest checkpoint, so the log keeps
        that one (and a count) rather than a full state copy per checkpoint."""
        wal = WriteAheadLog()
        taken = []
        for value in range(3):
            wal.append("t", "k", value)
            taken.append(weakref.ref(wal.take_checkpoint({"k": value})))
        gc.collect()
        assert [ref() for ref in taken if ref() is not None] == [wal.latest_checkpoint]
        assert wal.latest_checkpoint.lsn == 3 and wal.latest_checkpoint.state == {"k": 2}
        assert wal.num_checkpoints == 3

    @pytest.mark.usefixtures("rows_kept")
    def test_replay_into_applies_only_the_tail(self):
        wal = WriteAheadLog()
        wal.append("t1", "a", 1)
        checkpoint = wal.take_checkpoint({"a": 1})
        wal.append("t2", "a", 2)
        wal.append("t3", "b", 3)

        store = restore_from_checkpoint(checkpoint)
        replayed = wal.replay_into(store, after_lsn=checkpoint.lsn)
        assert len(replayed) == 2
        assert store.snapshot() == {"a": 2, "b": 3}
        # Replayed writes are attributed to their original transactions.
        assert store.read_version("b").writer == "t3"

    def test_restore_from_no_checkpoint_is_empty(self):
        store = restore_from_checkpoint(None)
        assert len(store) == 0

    def test_checkpoint_state_is_copied(self):
        wal = WriteAheadLog()
        state = {"a": 1}
        checkpoint = wal.take_checkpoint(state)
        state["a"] = 99
        assert checkpoint.state == {"a": 1}
