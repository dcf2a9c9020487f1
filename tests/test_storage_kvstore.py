"""Tests for the versioned key-value store."""

import pytest

from repro.storage.kvstore import KeyNotFound, KeyValueStore


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
        assert store.rollback_writer("k", "t1") is True
        assert store.read("k") == "original"

    def test_rollback_writer_to_none_when_first_writer(self, store):
        store.write("k", "v", writer="t1")
        store.rollback_writer("k", "t1")
        assert store.read("k") is None

    def test_rollback_unknown_writer_is_noop(self, store):
        store.write("k", 1, writer="t1")
        assert store.rollback_writer("k", "t2") is False
        assert store.read("k") == 1

    def test_rollback_missing_key_is_noop(self, store):
        assert store.rollback_writer("missing", "t1") is False
