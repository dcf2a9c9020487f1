"""Read/write operations and read/write sets.

Operations are the vocabulary of the formal model in Section 4.1:
``r^s_t(x)`` and ``w^s_t(x)`` for section ``s`` of transaction ``t`` on
data item ``x``.  Concurrency controllers consume *read/write sets* —
the ``get_rwsets`` step of Algorithms 1 and 2 — and the history checker
reads executed operations to find conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.storage.locks import LockRequests


class OperationKind(Enum):
    """Read or write."""

    READ = "r"
    WRITE = "w"


@dataclass(frozen=True)
class Operation:
    """One executed database operation."""

    kind: OperationKind
    key: str
    value: Any = None

    def conflicts_with(self, other: "Operation") -> bool:
        """Two operations conflict when they touch the same key and at
        least one of them is a write."""
        if self.key != other.key:
            return False
        return self.kind is OperationKind.WRITE or other.kind is OperationKind.WRITE


def lock_keys(reads: Iterable[str] | None, writes: Iterable[str]) -> LockRequests:
    """The lock requests of reading ``reads`` and writing ``writes``: the
    sorted written keys, then the sorted keys only read (``reads`` is
    ``None`` when every key read is also written)."""
    written = set(writes)
    exclusive = tuple(sorted(written))
    if reads is None:
        return exclusive, ()
    shared = set(reads)
    shared -= written
    return exclusive, tuple(sorted(shared))


class ReadWriteSet:
    """Declared read and write sets of a section (``get_rwsets``).

    An immutable value, equal and hashed by its two sets.  It is built
    from two key collections — or, when ``row`` is given, from two spans
    (slices) of that key row: a workload transaction is one row of drawn
    keys, and each of its sections, and their union, reads ``row[reads]``
    and writes ``row[writes]``.  Everything else is derived on first use:
    the frozensets :attr:`reads` / :attr:`writes` / :attr:`keys` (one set
    for all three when one collection or span is both read and written)
    and, without building a set that is kept, :attr:`key_count` and the
    sorted :meth:`lock_requests` (a workload section handed the requests its
    draft built never builds them).
    """

    __slots__ = (
        "row",
        "_read_keys",
        "_write_keys",
        # Derived on first use:
        "_reads",
        "_writes",
        "_keys",
        "_key_count",
        "_exclusive",
        "_shared",
    )

    def __init__(
        self,
        reads: Iterable[str] | slice = frozenset(),
        writes: Iterable[str] | slice = frozenset(),
        row: tuple | None = None,
        exclusive: tuple[str, ...] | None = None,
        shared: tuple[str, ...] | None = None,
    ) -> None:
        self.row = row
        self._read_keys = reads
        self._write_keys = writes
        self._reads = self._writes = self._keys = self._key_count = None
        #: The lock requests, when whoever built the keys built them too.
        self._exclusive = exclusive
        self._shared = shared

    @property
    def read_keys(self) -> Iterable[str]:
        """The keys read, as declared (a row repeats a key drawn twice)."""
        row = self.row
        return self._read_keys if row is None else row[self._read_keys]

    @property
    def write_keys(self) -> Iterable[str]:
        row = self.row
        return self._write_keys if row is None else row[self._write_keys]

    @property
    def reads(self) -> frozenset[str]:
        reads = self._reads
        if reads is None:
            same = self._read_keys is self._write_keys
            reads = self._reads = self.writes if same else frozenset(self.read_keys)
        return reads

    @property
    def writes(self) -> frozenset[str]:
        writes = self._writes
        if writes is None:
            writes = self._writes = frozenset(self.write_keys)
        return writes

    @property
    def keys(self) -> frozenset[str]:
        keys = self._keys
        if keys is None:
            reads, writes = self.reads, self.writes
            keys = self._keys = reads if reads is writes else reads | writes
        return keys

    @property
    def key_count(self) -> int:
        """Number of distinct keys declared."""
        count = self._key_count
        if count is None:
            row, reads, writes = self.row, self._read_keys, self._write_keys
            keys = set(writes if row is None else row[writes])
            if reads is not writes:
                keys.update(reads if row is None else row[reads])
            count = self._key_count = len(keys)
        return count

    def lock_requests(self) -> LockRequests:
        """Lock requests covering the set (:func:`lock_keys`), built on first use."""
        exclusive = self._exclusive
        if exclusive is None:
            same = self._read_keys is self._write_keys
            exclusive, self._shared = lock_keys(None if same else self.read_keys, self.write_keys)
            self._exclusive = exclusive
        return exclusive, self._shared

    def merged(self, other: "ReadWriteSet") -> "ReadWriteSet":
        """Union of two read/write sets."""
        return ReadWriteSet(reads=self.reads | other.reads, writes=self.writes | other.writes)

    def conflicts_with(self, other: "ReadWriteSet") -> bool:
        """True when some key is written by one set and touched by the other."""
        return bool(self.writes & other.keys or other.writes & self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadWriteSet):
            return NotImplemented
        return self.reads == other.reads and self.writes == other.writes

    def __hash__(self) -> int:
        return hash((self.reads, self.writes))

    def __repr__(self) -> str:
        return f"ReadWriteSet(reads={self.reads!r}, writes={self.writes!r})"
