"""Tests for operations and read/write sets."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.locks import LockMode
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet

from helpers import lock_mode, operations_conflict, rwset_from_operations


class TestOperation:
    def test_reads_do_not_conflict(self):
        a = Operation(OperationKind.READ, "x")
        b = Operation(OperationKind.READ, "x")
        assert not a.conflicts_with(b)

    def test_read_write_conflict_on_same_key(self):
        read = Operation(OperationKind.READ, "x")
        write = Operation(OperationKind.WRITE, "x", 1)
        assert read.conflicts_with(write)
        assert write.conflicts_with(read)

    def test_write_write_conflict(self):
        a = Operation(OperationKind.WRITE, "x", 1)
        b = Operation(OperationKind.WRITE, "x", 2)
        assert a.conflicts_with(b)

    def test_different_keys_never_conflict(self):
        a = Operation(OperationKind.WRITE, "x", 1)
        b = Operation(OperationKind.WRITE, "y", 2)
        assert not a.conflicts_with(b)

    def test_lock_mode(self):
        assert lock_mode(Operation(OperationKind.READ, "x")) is LockMode.SHARED
        assert lock_mode(Operation(OperationKind.WRITE, "x")) is LockMode.EXCLUSIVE

    def test_operations_conflict_helper(self):
        left = [Operation(OperationKind.READ, "a"), Operation(OperationKind.WRITE, "b")]
        right = [Operation(OperationKind.READ, "b")]
        assert operations_conflict(left, right)
        assert not operations_conflict(left, [Operation(OperationKind.READ, "a")])


class TestReadWriteSet:
    def test_keys_union(self):
        rwset = ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        assert rwset.keys == {"a", "b"}

    def test_lock_requests_prefer_exclusive(self):
        rwset = ReadWriteSet(reads=frozenset({"a", "b"}), writes=frozenset({"b"}))
        assert rwset.lock_requests() == (("b",), ("a",))

    def test_merged(self):
        left = ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        right = ReadWriteSet(reads=frozenset({"c"}), writes=frozenset({"a"}))
        merged = left.merged(right)
        assert merged.reads == {"a", "c"}
        assert merged.writes == {"a", "b"}

    def test_conflicts_when_write_overlaps(self):
        left = ReadWriteSet(writes=frozenset({"x"}))
        right = ReadWriteSet(reads=frozenset({"x"}))
        assert left.conflicts_with(right)
        assert right.conflicts_with(left)

    def test_no_conflict_between_read_only_sets(self):
        left = ReadWriteSet(reads=frozenset({"x"}))
        right = ReadWriteSet(reads=frozenset({"x"}))
        assert not left.conflicts_with(right)

    def test_from_operations(self):
        operations = [
            Operation(OperationKind.READ, "a"),
            Operation(OperationKind.WRITE, "b", 1),
            Operation(OperationKind.READ, "b"),
        ]
        rwset = rwset_from_operations(operations)
        assert rwset.reads == {"a", "b"}
        assert rwset.writes == {"b"}

    def test_empty_set_conflicts_with_nothing(self):
        empty = ReadWriteSet()
        busy = ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        assert not empty.conflicts_with(busy)
        assert not busy.conflicts_with(empty)

    def test_is_an_immutable_value(self):
        left = ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        same = ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"}))
        assert left == same and hash(left) == hash(same)
        assert left != ReadWriteSet(reads=frozenset({"a"}))
        assert "reads=frozenset({'a'})" in repr(left)
        with pytest.raises(AttributeError):
            left.reads = frozenset()
        with pytest.raises(AttributeError):
            left.extra = 1

    def test_read_modify_write_shares_one_key_set(self):
        keys = frozenset({"a", "b"})
        rwset = ReadWriteSet(reads=keys, writes=keys)
        assert rwset.keys is keys
        assert rwset.key_count == 2


keys = st.text(alphabet="abcde", min_size=1, max_size=2)


class TestRowBackedReadWriteSet:
    """A declaration over spans of a key row is the frozenset declaration
    of the same keys: same sets, same lock requests, same key count."""

    @given(
        row=st.lists(keys, max_size=8).map(tuple),
        cuts=st.lists(st.integers(min_value=0, max_value=8), min_size=4, max_size=4),
    )
    def test_equals_the_frozenset_declaration(self, row, cuts):
        reads, writes = slice(*sorted(cuts[:2])), slice(*sorted(cuts[2:]))
        derived = ReadWriteSet(reads, writes, row)
        declared = ReadWriteSet(reads=frozenset(row[reads]), writes=frozenset(row[writes]))
        assert derived.lock_requests() == declared.lock_requests()
        exclusive, shared = derived.lock_requests()
        assert all(a is b for a, b in zip(derived.lock_requests(), (exclusive, shared)))
        assert derived.key_count == declared.key_count == len(declared.keys)
        assert derived == declared and declared == derived
        assert (derived.reads, derived.writes, derived.keys) == (
            declared.reads,
            declared.writes,
            declared.keys,
        )
        assert derived.merged(declared) == declared
        assert derived.read_keys == row[reads] and derived.write_keys == row[writes]

    @given(row=st.lists(keys, min_size=1, max_size=8).map(tuple))
    def test_one_span_is_one_set_and_exclusive_locks_only(self, row):
        span = slice(0, None)
        derived = ReadWriteSet(span, span, row)
        assert derived.reads is derived.writes is derived.keys
        assert derived.lock_requests() == (tuple(sorted(set(row))), ())
        assert derived.key_count == len(set(row))

    def test_nothing_is_built_before_it_is_asked_for(self):
        derived = ReadWriteSet(slice(0, 1), slice(1, 3), ("a", "b", "a"))
        assert derived._reads is derived._writes is derived._exclusive is None
        assert derived.key_count == 2
        assert derived._reads is derived._writes is None
        assert derived.lock_requests() == (("a", "b"), ())
        assert derived._reads is derived._writes is None
