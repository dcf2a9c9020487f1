"""Durability logging: the undo log and the per-partition redo log.

Two logs with two different jobs live here:

* :class:`UndoLog` — MS-IA's apology machinery.  The apply-then-check
  pattern means an initial section may later turn out to have been
  triggered erroneously; the undo log records, per transaction, what
  each write replaced so the final section (or a cascading retraction)
  can restore the prior state and describe what was undone.
* :class:`WriteAheadLog` — the redo log a partition's durability hangs
  on.  Every *committed* write is appended with a monotonically
  increasing log sequence number (LSN) before it lands in the store;
  periodic :class:`Checkpoint` snapshots bound how much of the log a
  recovery has to replay.  When an edge replica crashes, its partitions'
  in-memory stores are lost but their logs survive; recovery rebuilds
  the store from the latest checkpoint and replays the log tail
  (:meth:`WriteAheadLog.replay_into`), exactly the redo protocol the
  failure/recovery scenarios of :mod:`repro.cluster` simulate.

Both logs keep rows, not objects: a logged write adds its fields to one
flat list.  :class:`UndoRecord` and :class:`LogRecord` are the read API,
rendered by the accessors; a :class:`LogRecord` is also what the redo
log's ship hook receives, built only when a hook is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Any

from repro.storage.kvstore import KeyValueStore


@dataclass(frozen=True)
class UndoRecord:
    """One logged write: ``key`` went from ``before`` to ``after``."""

    transaction_id: str
    key: str
    before: Any
    after: Any


@dataclass
class UndoLog:
    """Per-transaction undo images over a :class:`KeyValueStore`.

    A transaction's images are one flat list of rows — ``key, before,
    after, key, before, after, ...`` oldest first — so logging a write
    builds no object.  :class:`UndoRecord` is the read API:
    :meth:`records_for` and :meth:`undo` render it from the rows;
    :meth:`touched_keys` and :meth:`dependents` slice the key column.
    """

    store: KeyValueStore
    _records: dict[str, list] = field(default_factory=dict)

    def log_write(self, transaction_id: str, key: str, new_value: Any) -> None:
        """Record that ``transaction_id`` is about to write ``key``.

        The *current* value of the key is captured as the before-image.
        """
        before = self.store.read(key, default=None)
        rows = self._records.get(transaction_id)
        if rows is None:
            self._records[transaction_id] = [key, before, new_value]
        else:
            rows += (key, before, new_value)

    def records_for(self, transaction_id: str) -> tuple[UndoRecord, ...]:
        """Undo records of one transaction, oldest first, rendered."""
        rows = self._records.get(transaction_id, ())
        return tuple(map(UndoRecord, repeat(transaction_id), rows[0::3], rows[1::3], rows[2::3]))

    def undo(self, transaction_id: str) -> list[UndoRecord]:
        """Restore the before-image of every write of ``transaction_id``.

        Writes are undone newest-first.  Returns the undone records,
        rendered.  Undoing an unknown transaction is a no-op.
        """
        undone = list(reversed(self.records_for(transaction_id)))
        self._records.pop(transaction_id, None)
        for record in undone:
            self.store.write(record.key, record.before, writer=f"undo:{transaction_id}")
        return undone

    def forget(self, transaction_id: str) -> None:
        """Drop records of a transaction whose effects are now final."""
        self._records.pop(transaction_id, None)

    def touched_keys(self, transaction_id: str) -> frozenset[str]:
        """Keys written by ``transaction_id`` so far."""
        return frozenset(self._records.get(transaction_id, ())[0::3])

    def dependents(self, transaction_id: str) -> frozenset[str]:
        """Other transactions that later wrote keys this transaction wrote.

        Used to compute the retraction cascade in the token-game example
        (paper §4.4): if t1's effects are retracted, any transaction that
        built on the keys t1 touched may need to be compensated too.
        """
        keys = self.touched_keys(transaction_id)
        return frozenset(
            other_id
            for other_id, rows in self._records.items()
            if other_id != transaction_id and not keys.isdisjoint(rows[0::3])
        )


@dataclass(slots=True, unsafe_hash=True)
class LogRecord:
    """One committed write in the redo log, as read or shipped (immutable
    by convention, not frozen: one is rendered per record read)."""

    lsn: int
    transaction_id: str
    key: str
    value: Any


@dataclass(frozen=True)
class Checkpoint:
    """A consistent snapshot of a partition's live state.

    ``lsn`` is the last log sequence number the snapshot covers: a
    recovery restores ``state`` and replays only the records *after*
    ``lsn``.
    """

    lsn: int
    state: dict[str, Any]

    @property
    def num_keys(self) -> int:
        return len(self.state)


class WriteAheadLog:
    """Append-only redo log with LSNs and checkpoint snapshots.

    The log is the durable half of a partition: callers append every
    committed write *before* applying it to the in-memory store, so a
    crashed partition can always be reconstructed as
    ``latest checkpoint + replay of the tail``.  LSNs start at 1 and
    increase by 1 per record; checkpoints do not consume LSNs.

    The records are one flat list of rows — ``transaction_id, key,
    value, …`` oldest first — and a record's LSN is its position, so
    appending builds no object.  :class:`LogRecord` is the read API:
    :meth:`records`, :meth:`records_since` and :meth:`replay_into` render
    it from the rows, and :meth:`append` builds one only for the ship
    hook (:attr:`on_append`).  :meth:`replay` replays without rendering.

    Only the newest checkpoint is kept: a recovery never restores an older
    one, and each is a full copy of the partition's state.
    """

    def __init__(self) -> None:
        self._rows: list = []
        self._latest_checkpoint: Checkpoint | None = None
        # Ship hook: replication (and group-commit accounting) observe every
        # append as a ``LogRecord`` without the log knowing who listens.
        # ``None`` means nobody does, which keeps the unreplicated path
        # allocation-free.
        self.on_append: Any | None = None

    # -- appending -----------------------------------------------------------
    def append(self, transaction_id: str, key: str, value: Any) -> int:
        """Log one committed write and return its LSN."""
        rows = self._rows
        rows += (transaction_id, key, value)
        lsn = len(rows) // 3
        if self.on_append is not None:
            self.on_append(LogRecord(lsn, transaction_id, key, value))
        return lsn

    def append_record(self, record: LogRecord) -> int:
        """Apply a record shipped from another log, preserving its LSN.

        This is the backup's half of log shipping: a standby log accepts
        the primary's records verbatim so its LSNs stay aligned with the
        primary's.  Continuity is enforced — the record must be exactly
        the next LSN — because a gap would mean the standby silently
        missed a committed write.  The ship hook is *not* re-fired (a
        standby never re-ships).  Returns the LSN.
        """
        expected = len(self._rows) // 3 + 1
        if record.lsn != expected:
            raise ValueError(f"append_record expected LSN {expected}, got {record.lsn}")
        self._rows += (record.transaction_id, record.key, record.value)
        return expected

    def copy_records(self) -> WriteAheadLog:
        """A new log holding this log's records under the same LSNs, with no
        checkpoint and no ship hook: what :meth:`append_record` of every
        record into an empty log builds, rendering none."""
        log = WriteAheadLog()
        log._rows = self._rows.copy()
        return log

    def take_checkpoint(self, state: dict[str, Any]) -> Checkpoint:
        """Snapshot ``state`` as covering everything up to the last LSN;
        it replaces the previous checkpoint."""
        checkpoint = self._latest_checkpoint = Checkpoint(lsn=self.last_lsn, state=dict(state))
        return checkpoint

    # -- reading -------------------------------------------------------------
    @property
    def last_lsn(self) -> int:
        """LSN of the newest record (0 when the log is empty)."""
        return len(self._rows) // 3

    @property
    def latest_checkpoint(self) -> Checkpoint | None:
        """The newest checkpoint, or ``None`` if none was ever taken."""
        return self._latest_checkpoint

    def records_since(self, lsn: int) -> tuple[LogRecord, ...]:
        """Records with LSN strictly greater than ``lsn``, in log order.

        LSNs are dense (record ``i`` has LSN ``i+1``), so the tail is a
        direct slice of the rows rather than a scan.
        """
        after = max(int(lsn), 0)
        tail = self._rows[3 * after :]
        return tuple(map(LogRecord, count(after + 1), tail[0::3], tail[1::3], tail[2::3]))

    def records(self) -> tuple[LogRecord, ...]:
        """Every record in the log, oldest first."""
        return self.records_since(0)

    def __len__(self) -> int:
        return len(self._rows) // 3

    # -- recovery ------------------------------------------------------------
    def replay(self, store: KeyValueStore, after_lsn: int = 0) -> tuple[int, int]:
        """Re-apply records after ``after_lsn`` to ``store``, rendering none;
        returns how many records and how many distinct transactions.

        Writes carry their original transaction id as the writer, so a
        recovered store attributes every value to the transaction that
        committed it.
        """
        tail = self._rows[3 * max(int(after_lsn), 0) :]
        write = store.write
        rows = iter(tail)
        for transaction_id, key, value in zip(rows, rows, rows):
            write(key, value, writer=transaction_id)
        return len(tail) // 3, len(set(tail[0::3]))

    def replay_into(self, store: KeyValueStore, after_lsn: int = 0) -> tuple[LogRecord, ...]:
        """:meth:`replay`, returning the replayed records rendered."""
        self.replay(store, after_lsn)
        return self.records_since(after_lsn)


def restore_from_checkpoint(checkpoint: Checkpoint | None) -> KeyValueStore:
    """A fresh :class:`KeyValueStore` holding a checkpoint's state.

    ``None`` (no checkpoint ever taken) yields an empty store — recovery
    then replays the whole log from LSN 0.
    """
    store = KeyValueStore()
    if checkpoint is not None:
        for key in sorted(checkpoint.state):
            store.write(key, checkpoint.state[key], writer="checkpoint")
    return store
