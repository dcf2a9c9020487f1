"""Lock manager for multi-stage transactions.

Both Two-Stage 2PL (MS-SR) and the MS-IA controller acquire shared /
exclusive locks on keys.  The manager is *non-blocking*: a request that
cannot be granted immediately is denied, and the caller decides whether
to abort (MS-SR under contention, Figure 6b) or to queue the transaction
behind a sequencer (MS-IA, which the paper reports as abort-free).  A
lock pass asks for ``(exclusive keys, shared keys)`` (:data:`LockRequests`)
and :meth:`LockManager.acquire_all` grants it, all or nothing, in one loop:
the only grant code, which ``try_acquire``, a 2PC prepare and a
partitioned section's lock pass all go through.  :meth:`LockManager.grants`
reads the same S/X rule for one request without granting it: a
partitioned pass, whose requests span several managers, probes every
request before it takes any lock.

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
from typing import Collection, Iterable, Sequence

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
_EXCLUSIVE, _SHARED = LockMode.EXCLUSIVE, LockMode.SHARED

#: What a lock pass asks for: ``(exclusive keys, shared keys)``, each sorted,
#: with no key in both (a section that reads nothing has ``()`` shared).
LockRequests = tuple[Sequence[str], Sequence[str]]

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
        """Attempt to grant ``holder`` a lock on ``key``: :meth:`acquire_all`
        of one request.

        Returns ``True`` when granted, ``False`` when the request
        conflicts with an existing grant by another holder.  Re-acquiring
        an already held lock (including an S→X upgrade when the holder is
        the only one) succeeds.
        """
        if mode is _EXCLUSIVE:
            return self.acquire_all(holder, (key,), (), now)
        return self.acquire_all(holder, (), (key,), now)

    def acquire_all(
        self,
        holder: str,
        exclusive_keys: Iterable[str],
        shared_keys: Iterable[str] = (),
        now: float = 0.0,
    ) -> bool:
        """Atomically acquire every requested lock or none of them.

        This is the ``acquirelocks(items)`` step of Algorithms 1 and 2, on
        the two halves of a pass's :data:`LockRequests`: the exclusive keys
        are granted, then the shared ones.  If any lock
        is unavailable, the locks this call granted are rolled back (an
        S→X upgrade it made stays) and ``False`` is returned; ``holder``'s
        key set is updated once, on success.
        """
        table = self._table
        granted: list[str] = []
        for key in exclusive_keys:
            entry = table.get(key)
            if entry is None:
                table[key] = [_EXCLUSIVE, {holder: now}]
                granted.append(key)
                continue
            holders = entry[_HOLDERS]
            if holder not in holders or (entry[_MODE] is _SHARED and len(holders) > 1):
                if granted:
                    self._roll_back(holder, granted)
                return False
            entry[_MODE] = _EXCLUSIVE
        for key in shared_keys:
            entry = table.get(key)
            if entry is None:
                table[key] = [_SHARED, {holder: now}]
                granted.append(key)
                continue
            holders = entry[_HOLDERS]
            if holder in holders:
                continue
            if entry[_MODE] is not _SHARED:
                if granted:
                    self._roll_back(holder, granted)
                return False
            holders[holder] = now
            granted.append(key)
        if granted:
            held = self._held_by.get(holder)
            if held is None:
                self._held_by[holder] = set(granted)
            else:
                held.update(granted)
        return True

    def _roll_back(self, holder: str, granted: list[str]) -> None:
        """Take back the grants a denied :meth:`acquire_all` made."""
        table = self._table
        for key in granted:
            holders = table[key][_HOLDERS]
            del holders[holder]
            if not holders:
                del table[key]
        held = self._held_by.get(holder)
        if held is not None:
            # A set's iteration order follows its add / discard history, and
            # release_all adds tenures in that order: the set is left as
            # granting and giving back each key in turn leaves it.
            held.update(granted)
            for key in granted:
                held.discard(key)  # not difference_update, which may resize

    def grants(self, holder: str, key: str, exclusive: bool) -> bool:
        """Whether :meth:`acquire_all` would grant ``holder`` an X (``exclusive``)
        or S lock on ``key`` now: its S/X rule, read without granting.

        A partitioned section's lock pass probes each request with it, so a
        pass that would be denied takes no lock at all."""
        entry = self._table.get(key)
        if entry is None:
            return True
        holders = entry[_HOLDERS]
        if exclusive:
            return holder in holders and (entry[_MODE] is _EXCLUSIVE or len(holders) == 1)
        return holder in holders or entry[_MODE] is _SHARED

    def acquire_exclusive(self, holder: str, keys: Iterable[str], now: float = 0.0) -> bool:
        """:meth:`acquire_all` of an X lock on every key of ``keys``, where a
        key ``holder`` already holds exclusively is no request (it would be
        granted and change nothing): a 2PC prepare on a section's locks."""
        table = self._table
        requests = []
        for key in keys:
            entry = table.get(key)
            if entry is None or entry[_MODE] is not _EXCLUSIVE or holder not in entry[_HOLDERS]:
                requests.append(key)
        return not requests or self.acquire_all(holder, requests, (), now)

    def release(self, holder: str, key: str, now: float = 0.0) -> None:
        """Release ``holder``'s lock on ``key`` (no-op when not held)."""
        entry = self._table.get(key)
        if entry is None or holder not in entry[_HOLDERS]:
            return
        held = self._held_by[holder]
        held.discard(key)
        if not held:
            del self._held_by[holder]
        self._end_tenures(holder, (key,), now)

    def release_all(self, holder: str, now: float = 0.0) -> None:
        """Release every lock held by ``holder``."""
        keys = self._held_by.pop(holder, None)
        if keys is not None:
            self._end_tenures(holder, keys, now)

    def _end_tenures(self, holder: str, keys: Collection[str], now: float) -> None:
        """End ``holder``'s grants on ``keys`` (each held) at ``now``, adding
        each tenure to the totals in turn (and its row, when kept)."""
        table, holds = self._table, self._holds
        total, error = self._hold_total, self._hold_error
        for key in keys:
            holders = table[key][_HOLDERS]
            acquired_at = holders.pop(holder)
            if not holders:
                del table[key]
            duration = now - acquired_at
            if _COMPENSATED_SUM and type(total) is float and type(duration) is float:
                # sum()'s loop over exact floats; it adds anything else plainly.
                summed = total + duration
                if abs(total) >= abs(duration):
                    error += (total - summed) + duration
                else:
                    error += (duration - summed) + total
                total = summed
            else:
                total = total + duration
            if holds is not None:
                holds += (key, holder, acquired_at, now)
        self._hold_total, self._hold_error = total, error
        self._tenures += len(keys)

    def holds(self, holder: str, key: str) -> bool:
        """True when ``holder`` currently holds a lock on ``key``."""
        entry = self._table.get(key)
        return entry is not None and holder in entry[_HOLDERS]

    def held_keys(self, holder: str) -> frozenset[str]:
        """Keys currently locked by ``holder``."""
        return frozenset(self._held_by.get(holder, _NO_KEYS))

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
