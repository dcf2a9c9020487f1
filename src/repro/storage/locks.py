"""Lock manager for multi-stage transactions.

Both Two-Stage 2PL (MS-SR) and the MS-IA controller acquire shared /
exclusive locks on keys.  The manager is *non-blocking*: a request that
cannot be granted immediately is denied, and the caller decides whether
to abort (MS-SR under contention, Figure 6b) or to queue the transaction
behind a sequencer (MS-IA, which the paper reports as abort-free).

The manager also tracks, per holder, when each lock was acquired so the
benchmark for Figure 6a can measure average lock-hold latency.  Every
release on the transaction path completes a tenure; the manager keeps
only the count and the total hold time that mean needs, added to at each
release.  A row per tenure is kept only when
:attr:`LockManager.keep_tenures` is on when the manager is built (tests
turn it on): one flat list, rendered into :class:`LockHoldRecord` objects
when :attr:`LockManager.hold_records` is read.  With tenures off that
read raises :class:`~repro.storage.kvstore.RowsNotKept`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.storage.kvstore import RowsNotKept


class LockMode(Enum):
    """Shared (read) or exclusive (write) lock."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockRequestDenied(RuntimeError):
    """Raised when a lock cannot be granted and the caller must abort/retry."""

    def __init__(self, key: str, holder: str, requester: str) -> None:
        super().__init__(f"{requester} denied lock on {key!r} held by {holder}")
        self.key = key
        self.holder = holder
        self.requester = requester


class LockTransferConflict(RuntimeError):
    """A grant was moved onto a manager that already grants its key.

    A key has one owning partition, so only one manager can grant it;
    moving a second grant in would overwrite the first and strand its
    holders' book-keeping.
    """

    def __init__(self, key: str) -> None:
        super().__init__(f"cannot move the grant on {key!r}: the target already grants it")
        self.key = key


@dataclass(frozen=True)
class LockHoldRecord:
    """A completed lock tenure, used for contention statistics."""

    key: str
    holder: str
    acquired_at: float
    released_at: float

    @property
    def duration(self) -> float:
        return self.released_at - self.acquired_at


#: The grants on one key are a two-slot list ``[mode, {holder: acquire time}]``
#: (built per grant, so a literal rather than a class).
_MODE, _HOLDERS = 0, 1
_NO_KEYS: frozenset[str] = frozenset()

#: ``sum`` adds floats with Neumaier's compensation from Python 3.12 on; the
#: running hold total adds the same way, so its mean is ``sum(durations) / n``
#: bit for bit on every interpreter.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


class LockManager:
    """Grants and releases S/X locks and totals hold durations."""

    #: Keep a row per completed tenure for :attr:`hold_records`.  Read when
    #: a manager is built; only tests turn it on.
    keep_tenures = False

    def __init__(self) -> None:
        self._table: dict[str, list] = {}
        #: holder -> keys it holds; an entry exists only while non-empty.
        self._held_by: dict[str, set[str]] = {}
        #: Completed tenures, and their hold times summed as ``sum`` would
        #: (int 0 start; the compensation term stays 0.0 before 3.12).
        self._tenures = 0
        self._hold_total = 0
        self._hold_error = 0.0
        #: Completed tenures, flat: key, holder, acquired_at, released_at, key, ...
        #: ``None`` unless :attr:`keep_tenures` was on.
        self._holds: list | None = [] if self.keep_tenures else None

    def try_acquire(
        self,
        holder: str,
        key: str,
        mode: LockMode,
        now: float = 0.0,
    ) -> bool:
        """Attempt to grant ``holder`` a lock on ``key``.

        Returns ``True`` when granted, ``False`` when the request
        conflicts with an existing grant by another holder.  Re-acquiring
        an already held lock (including an S→X upgrade when the holder is
        the only one) succeeds.
        """
        entry = self._table.get(key)
        if entry is None:
            self._table[key] = [mode, {holder: now}]
        elif holder in entry[_HOLDERS]:
            if mode is LockMode.EXCLUSIVE and entry[_MODE] is LockMode.SHARED:
                if len(entry[_HOLDERS]) > 1:
                    return False
                entry[_MODE] = LockMode.EXCLUSIVE
            return True
        elif entry[_MODE] is LockMode.SHARED and mode is LockMode.SHARED:
            entry[_HOLDERS][holder] = now
        else:
            return False
        held = self._held_by.get(holder)
        if held is None:
            self._held_by[holder] = {key}
        else:
            held.add(key)
        return True

    def acquire_all(
        self,
        holder: str,
        requests: Iterable[tuple[str, LockMode]],
        now: float = 0.0,
    ) -> bool:
        """Atomically acquire every requested lock or none of them.

        This is the ``acquirelocks(items)`` step of Algorithms 1 and 2:
        if any lock is unavailable, the locks acquired so far in this call
        are rolled back and ``False`` is returned.
        """
        # The holder's live key set when it has one (it grows as this call
        # grants); a holder with none held nothing before the call.
        held = self._held_by.get(holder, _NO_KEYS)
        try_acquire = self.try_acquire
        newly_acquired: list[str] = []
        for key, mode in requests:
            already_held = key in held
            if try_acquire(holder, key, mode, now):
                if not already_held:
                    newly_acquired.append(key)
            else:
                for acquired_key in newly_acquired:
                    self.release(holder, acquired_key, now=now, record=False)
                return False
        return True

    def acquire_exclusive(self, holder: str, keys: Iterable[str], now: float = 0.0) -> bool:
        """:meth:`acquire_all` of an X lock on every key of ``keys``, where a
        key ``holder`` already holds exclusively is no request (it would be
        granted and change nothing): a 2PC prepare on a section's locks."""
        table = self._table
        exclusive = LockMode.EXCLUSIVE
        requests = []
        for key in keys:
            entry = table.get(key)
            if entry is None or entry[_MODE] is not exclusive or holder not in entry[_HOLDERS]:
                requests.append((key, exclusive))
        return not requests or self.acquire_all(holder, requests, now)

    def release(self, holder: str, key: str, now: float = 0.0, record: bool = True) -> None:
        """Release ``holder``'s lock on ``key`` (no-op when not held)."""
        entry = self._table.get(key)
        if entry is None or holder not in entry[_HOLDERS]:
            return
        acquired_at = entry[_HOLDERS].pop(holder)
        if record:
            self._end_tenure(key, holder, acquired_at, now)
        held = self._held_by[holder]
        held.discard(key)
        if not held:
            del self._held_by[holder]
        if not entry[_HOLDERS]:
            del self._table[key]

    def release_all(self, holder: str, now: float = 0.0) -> None:
        """Release every lock held by ``holder``."""
        table, end_tenure = self._table, self._end_tenure
        for key in self._held_by.pop(holder, _NO_KEYS):
            holders = table[key][_HOLDERS]
            end_tenure(key, holder, holders.pop(holder), now)
            if not holders:
                del table[key]

    def _end_tenure(self, key: str, holder: str, acquired_at: float, released_at: float) -> None:
        """Add one completed tenure to the totals (and its row, when kept)."""
        duration = released_at - acquired_at
        total = self._hold_total
        if _COMPENSATED_SUM and type(total) is float and type(duration) is float:
            # sum()'s loop over exact floats; it adds anything else plainly.
            summed = total + duration
            if abs(total) >= abs(duration):
                self._hold_error += (total - summed) + duration
            else:
                self._hold_error += (duration - summed) + total
            self._hold_total = summed
        else:
            self._hold_total = total + duration
        self._tenures += 1
        if self._holds is not None:
            self._holds += (key, holder, acquired_at, released_at)

    def transfer_key(self, key: str, target: "LockManager") -> bool:
        """Move the live grant on ``key`` (if any) to ``target``.

        Used when a key changes partitions at runtime (re-sharding): the
        grant — holders and acquire times — moves wholesale so in-flight
        transactions keep their locks across the move.  Completed tenures
        stay counted by this manager.  Returns ``True`` when a grant
        was moved; raises :class:`LockTransferConflict`, moving nothing,
        when ``target`` already grants ``key``.
        """
        entry = self._table.get(key)
        if entry is None:
            return False
        if key in target._table:
            raise LockTransferConflict(key)
        del self._table[key]
        target._table[key] = entry
        for holder in entry[_HOLDERS]:
            held = self._held_by[holder]
            held.discard(key)
            if not held:
                del self._held_by[holder]
            target._held_by.setdefault(holder, set()).add(key)
        return True

    def holds(self, holder: str, key: str) -> bool:
        """True when ``holder`` currently holds a lock on ``key``."""
        entry = self._table.get(key)
        return entry is not None and holder in entry[_HOLDERS]

    def held_keys(self, holder: str) -> frozenset[str]:
        """Keys currently locked by ``holder``."""
        return frozenset(self._held_by.get(holder, _NO_KEYS))

    def locked_keys(self) -> frozenset[str]:
        """All keys currently locked by anyone."""
        return frozenset(self._table.keys())

    @property
    def is_quiescent(self) -> bool:
        """True when no lock is granted and no holder book-keeping is left."""
        return not self._table and not self._held_by

    @property
    def hold_records(self) -> tuple[LockHoldRecord, ...]:
        """Completed lock tenures, rendered (kept only with :attr:`keep_tenures`)."""
        holds = self._holds
        if holds is None:
            raise RowsNotKept(
                "this LockManager keeps only its tenure count and total hold time; "
                "turn LockManager.keep_tenures on before building it"
            )
        return tuple(LockHoldRecord(*holds[i : i + 4]) for i in range(0, len(holds), 4))

    def average_hold_time(self) -> float:
        """Mean duration of completed lock tenures (0 when none)."""
        if not self._tenures:
            return 0.0
        total, error = self._hold_total, self._hold_error
        if error and math.isfinite(error):
            total += error
        return total / self._tenures
