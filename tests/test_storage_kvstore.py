"""Tests for the key-value store: its read API, the version rows it keeps
only when asked, and that keeping them changes no answer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kvstore import KeyNotFound, KeyValueStore, RowsNotKept
from repro.storage.wal import UndoLog

from helpers import keeping_rows, rollback_writer


@pytest.mark.usefixtures("rows_kept")
class TestKeyValueStore:
    def test_read_missing_key_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.read("missing")

    def test_read_missing_key_with_default(self, store):
        assert store.read("missing", default=42) == 42

    def test_write_then_read(self, store):
        store.write("k", "value")
        assert store.read("k") == "value"

    def test_latest_version_wins(self, store):
        store.write("k", 1)
        store.write("k", 2)
        assert store.read("k") == 2

    def test_history_preserves_all_versions(self, store):
        store.write("k", 1, writer="t1")
        store.write("k", 2, writer="t2")
        history = store.history("k")
        assert [v.value for v in history] == [1, 2]
        assert [v.writer for v in history] == ["t1", "t2"]

    def test_sequence_numbers_increase(self, store):
        assert store.write("a", 1) is None
        store.write("b", 2)
        v1, v2 = store.read_version("a"), store.read_version("b")
        assert v2.sequence > v1.sequence

    def test_read_version_by_index(self, store):
        store.write("k", "old")
        store.write("k", "new")
        assert store.read_version("k", 0).value == "old"
        assert store.read_version("k").value == "new"

    def test_read_version_missing_raises(self, store):
        with pytest.raises(KeyNotFound):
            store.read_version("missing")

    def test_delete_is_tombstone(self, store):
        store.write("k", 1)
        store.delete("k")
        assert store.read("k") is None
        assert not store.exists("k")
        assert "k" in store

    def test_exists(self, store):
        assert not store.exists("k")
        store.write("k", 0)
        assert store.exists("k")

    def test_snapshot_excludes_tombstones(self, store):
        store.write("a", 1)
        store.write("b", 2)
        store.delete("b")
        assert store.snapshot() == {"a": 1}

    def test_keys_iteration(self, store):
        store.write("a", 1)
        store.write("b", 2)
        assert set(store.keys()) == {"a", "b"}
        assert len(store) == 2

    def test_rollback_writer_restores_prior_value(self, store):
        store.write("k", "original", writer="setup")
        store.write("k", "changed", writer="t1")
        assert rollback_writer(store, "k", "t1") is True
        assert store.read("k") == "original"

    def test_rollback_writer_to_none_when_first_writer(self, store):
        store.write("k", "v", writer="t1")
        rollback_writer(store, "k", "t1")
        assert store.read("k") is None

    def test_rollback_unknown_writer_is_noop(self, store):
        store.write("k", 1, writer="t1")
        assert rollback_writer(store, "k", "t2") is False
        assert store.read("k") == 1

    def test_rollback_missing_key_is_noop(self, store):
        assert rollback_writer(store, "missing", "t1") is False


class TestVersionsNotKept:
    def test_a_store_keeps_no_versions_by_default(self):
        assert KeyValueStore.keep_versions is False
        store = KeyValueStore()
        store.write("k", 1, writer="t1")
        store.delete("k", writer="t2")
        for read in (
            lambda: store.history("k"),
            lambda: store.history("missing"),
            lambda: store.read_version("k"),
            lambda: store.read_version("missing", 0),
            lambda: rollback_writer(store, "k", "t1"),
        ):
            with pytest.raises(RowsNotKept, match="keep_versions"):
                read()
        assert store.read("k") is None and "k" in store and not store.exists("k")

    def test_the_switch_is_read_when_a_store_is_built(self):
        with keeping_rows():
            versioned = KeyValueStore()
        latest_only = KeyValueStore()
        for store in (versioned, latest_only):
            store.write("k", 1, writer="t1")
        assert versioned.history("k")[0].writer == "t1"
        with pytest.raises(RowsNotKept):
            latest_only.history("k")


_keys = st.sampled_from(["a", "b", "c", "d"])
_txns = st.sampled_from(["t1", "t2", "t3"])
_values = st.one_of(st.none(), st.integers(0, 9))
_calls = st.one_of(
    st.tuples(st.just("write"), _keys, _values, _txns),
    st.tuples(st.just("delete"), _keys, _txns),
    st.tuples(st.just("read"), _keys),
    st.tuples(st.just("exists"), _keys),
    st.tuples(st.just("contains"), _keys),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("keys")),
    st.tuples(st.just("len")),
    st.tuples(st.just("log_write"), _txns, _keys, _values),
    st.tuples(st.just("undo"), _txns),
)


def _answer(store, log, name, args):
    """What one call returns (or raises) on ``store`` and its undo log."""
    if name == "write":
        key, value, writer = args
        return store.write(key, value, writer=writer)
    if name == "delete":
        key, writer = args
        return store.delete(key, writer=writer)
    if name == "read":
        (key,) = args
        try:
            found = store.read(key)
        except KeyNotFound:
            found = KeyNotFound
        return found, store.read(key, default="absent")
    if name == "exists":
        return store.exists(*args)
    if name == "contains":
        return args[0] in store
    if name == "snapshot":
        return store.snapshot()
    if name == "keys":
        return list(store.keys())
    if name == "len":
        return len(store)
    if name == "log_write":
        # As a section context does: log the image, then write as the transaction.
        txn, key, value = args
        log.log_write(txn, key, value)
        return store.write(key, value, writer=txn)
    return log.undo(*args)


@settings(max_examples=300, deadline=None)
@given(st.lists(_calls, max_size=40))
def test_a_store_without_versions_answers_as_one_with_them(calls):
    """Random writes, deletes, reads and undo-log rounds on a store keeping
    only each key's latest value and on one keeping every version: every
    answer, the key order and the undone records are the same, and the
    latest value is the versioned store's newest version."""
    latest_only = KeyValueStore()
    with keeping_rows():
        versioned = KeyValueStore()
    stores = [(store, UndoLog(store)) for store in (latest_only, versioned)]
    for name, *args in calls:
        without, with_versions = (_answer(store, log, name, args) for store, log in stores)
        assert without == with_versions

    assert list(latest_only.keys()) == list(versioned.keys())
    assert latest_only.snapshot() == versioned.snapshot() and len(latest_only) == len(versioned)
    for key in versioned.keys():
        assert latest_only.read(key) == versioned.history(key)[-1].value
