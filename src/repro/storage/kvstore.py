"""In-memory key-value store.

The store keeps each key's latest value: one ``key -> value`` dict, in
first-write order.  Nothing on a run's path reads a superseded version —
MS-IA's undo path restores before-images from the
:class:`~repro.storage.wal.UndoLog`, and a partition's redo log holds
every committed write in LSN order — so a write replaces the value in
place and builds no object.

Every version of a key is kept only when :attr:`KeyValueStore.keep_versions`
is on when the store is built (tests turn it on to read them): one flat
list of rows per key — ``value, writer, sequence, value, writer,
sequence, ...`` in commit order — which :meth:`KeyValueStore.history` and
:meth:`KeyValueStore.read_version` render as :class:`Version` records.
With versions off those two raise :class:`RowsNotKept`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator


class KeyNotFound(KeyError):
    """Raised when reading a key that has never been written."""


class RowsNotKept(LookupError):
    """Raised when reading per-operation rows (store versions, lock
    tenures) an object was built without keeping."""


@dataclass(frozen=True)
class Version:
    """One committed version of a key."""

    value: Any
    writer: str
    sequence: int


_ABSENT = object()


class KeyValueStore:
    """Key-value store with simple read/write/delete.

    The store is deliberately unsynchronised: the concurrency controllers
    in :mod:`repro.transactions` serialize access to it, matching the
    paper's single edge-node prototype.
    """

    #: Keep every version as rows for :meth:`history` / :meth:`read_version`.
    #: Read when a store is built; only tests turn it on.
    keep_versions = False

    __slots__ = ("_latest", "_versions", "_sequence")

    def __init__(self) -> None:
        #: key -> latest value (``None`` is a tombstone), first-write order.
        self._latest: dict[str, Any] = {}
        #: key -> flat ``value, writer, sequence`` rows, oldest version
        #: first; ``None`` unless :attr:`keep_versions` was on.
        self._versions: dict[str, list] | None = {} if self.keep_versions else None
        self._sequence = 0

    def read(self, key: str, default: Any = ...) -> Any:
        """Return the latest committed value of ``key``.

        Raises :class:`KeyNotFound` when the key does not exist and no
        ``default`` is supplied.
        """
        value = self._latest.get(key, _ABSENT)
        if value is _ABSENT:
            if default is ...:
                raise KeyNotFound(key)
            return default
        return value

    def write(self, key: str, value: Any, writer: str = "system") -> None:
        """Make ``value`` the latest version of ``key``."""
        self._latest[key] = value
        versions = self._versions
        if versions is not None:
            self._sequence = sequence = self._sequence + 1
            rows = versions.get(key)
            if rows is None:
                versions[key] = [value, writer, sequence]
            else:
                rows += (value, writer, sequence)

    def delete(self, key: str, writer: str = "system") -> None:
        """Delete a key by writing a tombstone (``None``) version."""
        self.write(key, None, writer=writer)

    def exists(self, key: str) -> bool:
        """True when the key has a non-tombstone latest version."""
        return self._latest.get(key) is not None

    def _version_rows(self) -> dict[str, list]:
        if self._versions is None:
            raise RowsNotKept(
                "this KeyValueStore keeps only each key's latest value; "
                "turn KeyValueStore.keep_versions on before building it"
            )
        return self._versions

    def read_version(self, key: str, index: int = -1) -> Version:
        """Render a specific version record of ``key`` (default: latest)."""
        rows = self._version_rows().get(key)
        if not rows:
            raise KeyNotFound(key)
        start = range(0, len(rows), 3)[index]  # list indexing: negatives, IndexError
        return Version(*rows[start : start + 3])

    def history(self, key: str) -> tuple[Version, ...]:
        """All committed versions of ``key`` in commit order, rendered."""
        rows = self._version_rows().get(key, ())
        return tuple(map(Version, rows[0::3], rows[1::3], rows[2::3]))

    def keys(self) -> Iterator[str]:
        """Iterate over all keys that have ever been written."""
        return iter(self._latest.keys())

    def snapshot(self) -> dict[str, Any]:
        """Latest value of every live (non-tombstone) key."""
        return {key: value for key, value in self._latest.items() if value is not None}

    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, key: str) -> bool:
        return key in self._latest
