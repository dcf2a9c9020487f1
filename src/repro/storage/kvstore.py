"""Versioned in-memory key-value store.

The store keeps every committed version of a key.  Versions let the
final (apology) section of a transaction inspect what the initial
section wrote, and let the undo machinery retract a write precisely even
if later transactions touched the same key.

A key's versions are one flat list of rows — ``value, writer, sequence,
value, writer, sequence, ...`` in commit order — so a write appends three
slots and builds no object.  :class:`Version` is the read API:
:meth:`KeyValueStore.history` and :meth:`KeyValueStore.read_version`
render it from the rows; every other method reads the rows directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


class KeyNotFound(KeyError):
    """Raised when reading a key that has never been written."""


@dataclass(frozen=True)
class Version:
    """One committed version of a key."""

    value: Any
    writer: str
    sequence: int


@dataclass
class KeyValueStore:
    """Multi-version key-value store with simple read/write/delete.

    The store is deliberately unsynchronised: the concurrency controllers
    in :mod:`repro.transactions` serialize access to it, matching the
    paper's single edge-node prototype.
    """

    #: key -> flat ``value, writer, sequence`` rows, oldest version first.
    _data: dict[str, list] = field(default_factory=dict)
    _sequence: int = 0

    def read(self, key: str, default: Any = ...) -> Any:
        """Return the latest committed value of ``key``.

        Raises :class:`KeyNotFound` when the key does not exist and no
        ``default`` is supplied.
        """
        rows = self._data.get(key)
        if not rows:
            if default is ...:
                raise KeyNotFound(key)
            return default
        return rows[-3]

    def read_version(self, key: str, index: int = -1) -> Version:
        """Render a specific version record of ``key`` (default: latest)."""
        rows = self._data.get(key)
        if not rows:
            raise KeyNotFound(key)
        start = range(0, len(rows), 3)[index]  # list indexing: negatives, IndexError
        return Version(*rows[start : start + 3])

    def write(self, key: str, value: Any, writer: str = "system") -> None:
        """Append a new version of ``key``."""
        self._sequence = sequence = self._sequence + 1
        rows = self._data.get(key)
        if rows is None:
            self._data[key] = [value, writer, sequence]
        else:
            rows += (value, writer, sequence)

    def delete(self, key: str, writer: str = "system") -> None:
        """Delete a key by writing a tombstone (``None``) version."""
        self.write(key, None, writer=writer)

    def exists(self, key: str) -> bool:
        """True when the key has a non-tombstone latest version."""
        rows = self._data.get(key)
        return bool(rows) and rows[-3] is not None

    def history(self, key: str) -> tuple[Version, ...]:
        """All committed versions of ``key`` in commit order, rendered."""
        rows = self._data.get(key, ())
        return tuple(map(Version, rows[0::3], rows[1::3], rows[2::3]))

    def keys(self) -> Iterator[str]:
        """Iterate over all keys that have ever been written."""
        return iter(self._data.keys())

    def snapshot(self) -> dict[str, Any]:
        """Latest value of every live (non-tombstone) key."""
        return {key: rows[-3] for key, rows in self._data.items() if rows[-3] is not None}

    def rollback_writer(self, key: str, writer: str) -> bool:
        """Restore ``key`` to the value it had before ``writer`` last wrote it.

        Returns ``True`` when a write by ``writer`` was found and undone.
        Used by MS-IA apologies to retract the effect of an erroneous
        initial section.
        """
        rows = self._data.get(key, ())
        # Writers sit at 1, 4, 7, ...; the version before one is four slots back.
        for at in range(len(rows) - 2, -1, -3):
            if rows[at] == writer:
                prior_value = rows[at - 4] if at > 1 else None
                self.write(key, prior_value, writer=f"undo:{writer}")
                return True
        return False

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data
