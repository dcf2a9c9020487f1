"""Read/write operations and read/write sets.

Operations are the vocabulary of the formal model in Section 4.1:
``r^s_t(x)`` and ``w^s_t(x)`` for section ``s`` of transaction ``t`` on
data item ``x``.  Concurrency controllers consume *read/write sets* —
the ``get_rwsets`` step of Algorithms 1 and 2 — and the history recorder
stores executed operations to let the checkers find conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.storage.locks import LockMode


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

    @property
    def lock_mode(self) -> LockMode:
        """Lock mode this operation needs."""
        return LockMode.EXCLUSIVE if self.kind is OperationKind.WRITE else LockMode.SHARED


@dataclass(frozen=True)
class ReadWriteSet:
    """Declared read and write sets of a section (``get_rwsets``).

    The value is frozen, so what derives from it — :attr:`keys` and
    :meth:`lock_requests` — is computed on first use and kept on the
    instance (the two class attributes below are the "not yet" markers,
    not dataclass fields).
    """

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    _keys = None
    _requests = None

    @property
    def keys(self) -> frozenset[str]:
        keys = self._keys
        if keys is None:
            keys = self.reads | self.writes
            object.__setattr__(self, "_keys", keys)
        return keys

    def lock_requests(self) -> tuple[tuple[str, LockMode], ...]:
        """Lock requests covering the set; write locks win on overlap."""
        requests = self._requests
        if requests is None:
            exclusive, shared = LockMode.EXCLUSIVE, LockMode.SHARED
            pairs = []
            for key in sorted(self.writes):
                pairs.append((key, exclusive))
            for key in sorted(self.reads - self.writes):
                pairs.append((key, shared))
            requests = tuple(pairs)
            object.__setattr__(self, "_requests", requests)
        return requests

    def merged(self, other: "ReadWriteSet") -> "ReadWriteSet":
        """Union of two read/write sets."""
        return ReadWriteSet(reads=self.reads | other.reads, writes=self.writes | other.writes)

    def conflicts_with(self, other: "ReadWriteSet") -> bool:
        """True when some key is written by one set and touched by the other."""
        return bool(self.writes & other.keys or other.writes & self.keys)

    @classmethod
    def from_operations(cls, operations: Iterable[Operation]) -> "ReadWriteSet":
        """Build a read/write set from executed operations."""
        reads: set[str] = set()
        writes: set[str] = set()
        for operation in operations:
            if operation.kind is OperationKind.READ:
                reads.add(operation.key)
            else:
                writes.add(operation.key)
        return cls(reads=frozenset(reads), writes=frozenset(writes))


def operations_conflict(left: Iterable[Operation], right: Iterable[Operation]) -> bool:
    """True when any operation in ``left`` conflicts with one in ``right``."""
    right_list = list(right)
    return any(a.conflicts_with(b) for a in left for b in right_list)
