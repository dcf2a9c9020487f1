"""The MS-SR and MS-IA ordering conditions, checked one commit at a time.

These validate a recorded :class:`~repro.transactions.history.History`
against the formal definitions in Sections 4.3 and 4.4:

MS-SR, for every pair of conflicting transactions ``tk``, ``tj`` with
``s^i_k <h s^i_j``:

* (1) ``s^f_k`` commits after ``s^i_k``           (initial before final);
* (2) ``s^f_k`` commits before ``s^f_j``          (finals ordered like initials);
* (3) if ``s^f_k`` conflicts with ``s^i_j`` then ``s^f_k <h s^i_j``.

MS-IA only requires (1): each transaction's initial section is ordered
before its own final section.

:class:`OrderFold` checks them as a fold: it is fed each committed section
in ``<h`` order and keeps, per key, the live transactions that touched
it, and per live transaction where its sections sit in ``<h`` and which
keys they read or wrote.  A section is tested only
against the transactions that share a key with it, or that already
conflict with its transaction, so a commit costs O(keys in the section)
plus its sharers — never a scan of the history.  Every violation becomes
certain at one arrival, so it is reported then; the verdict is what has
been reported, plus each final still waiting for its initial:

* (1) a final whose transaction has no initial yet waits; its initial
  arriving later is "final before initial", and a final still waiting
  when the verdict is read has none;
* (3) is decided when ``s^f_k`` arrives: every ``s^i_j`` it conflicts
  with that committed after ``s^i_k`` has committed before it;
* (2) is decided when the second of the two transactions completes (has
  both sections): only then is the pair's conflict, over all four
  sections, known.

A transaction is retired — its index entries and state dropped — once it
has completed and every transaction whose initial committed before its
own has completed too: no later section can then take part in a
violation with it.  So what the fold keeps is the in-flight window: the
oldest in-flight transaction and everything whose initial committed after
it.  A final that commits before its initial (only in an invalid history)
pauses retirement until that initial arrives, since the pair rule (2)
can still reach back to transactions that completed meanwhile.

Each transaction commits each section at most once (a controller raises
:class:`~repro.transactions.exceptions.SectionOrderError` otherwise), and a
history with a repeated section is outside what the fold checks.  The
fold raises ``SectionOrderError`` for a repeat it can see: one of a live
transaction, or any repeat in a history keeping rows.  Once a transaction
has retired the fold no longer knows it, so a repeat of its section reads
as a new transaction's section and the verdict is undefined.

Retirement needs every transaction to complete.  One whose initial
commits but whose final never does (a final aborted after the initial
commit) holds every transaction whose initial committed after its own, so
the window then grows with the run, not with what is in flight.

:func:`check_ms_sr` and :func:`check_ms_ia` read a history's fold: the one
it fed as it recorded, or, for a history that keeps its rows, a new fold
over the rows in ``<h`` order.  They are part of the public API so
applications can audit traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.transactions.exceptions import CommitOutOfOrder, SectionOrderError
from repro.transactions.model import SectionKind
from repro.transactions.ops import OperationKind

if TYPE_CHECKING:
    from repro.transactions.history import History


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a history check."""

    ok: bool
    violations: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def check_ms_ia(history: History) -> CheckResult:
    """Validate the MS-IA condition: initial before final, per transaction."""
    return history.fold().ms_ia()


def check_ms_sr(history: History) -> CheckResult:
    """Validate all three MS-SR conditions over a history."""
    return history.fold().ms_sr()


_WRITE, _FINAL = OperationKind.WRITE, SectionKind.FINAL
#: Slots of a live transaction's state list: where its initial and its final
#: sit in ``<h`` (from 1; 0 while not committed), each section's keys (the
#: one slice :meth:`OrderFold.add` takes) and its flat ``kind, key, value``
#: rows as they were handed in (``None`` while not committed), and the live
#: transactions it conflicts with.
_INITIAL_AT, _FINAL_AT = 0, 1
_INITIAL_KEYS, _FINAL_KEYS, _INITIAL_ROWS, _FINAL_ROWS = 2, 3, 4, 5
_PARTNERS = 6


def _kind(rows: list | None, key: str) -> OperationKind | None:
    """How a section (its flat rows) touched ``key``: a write if any
    operation wrote it."""
    found = None
    if rows is not None:
        for at in range(1, len(rows), 3):
            if rows[at] == key:
                kind = rows[at - 1]
                if kind is _WRITE:
                    return kind
                found = kind
    return found


def section_label(transaction_id: str, section: SectionKind) -> str:
    """Compact ``s^i_t`` style label of a section, for violation messages."""
    suffix = "i" if section is SectionKind.INITIAL else "f"
    return f"s^{suffix}_{transaction_id}"


class OrderFold:
    """MS-SR / MS-IA verdict over committed sections fed in ``<h`` order.

    :meth:`add` takes a section as its transaction id, kind, commit time
    and flat ``kind, key, value, …`` operation rows (what a controller
    hands :attr:`History.record_rows
    <repro.transactions.history.History.record_rows>`, which is this method
    on a history that keeps no rows); it keeps a live section's keys and
    the rows it was handed, which it reads only for operation kinds.
    """

    __slots__ = (
        "_live",
        "_index",
        "_queue",
        "_waiting",
        "_position",
        "_latest",
        "_slots",
        "_order",
        "_pairs",
    )

    def __init__(self) -> None:
        #: transaction id -> its state list (the ``_INITIAL_AT`` … slots).
        self._live: dict[str, list] = {}
        #: key -> the one live transaction that touched it, or a dict (an
        #: ordered set) of the two or more that did.
        self._index: dict[str, str | dict[str, None]] = {}
        #: Live transactions with an initial, in initial order (the oldest
        #: first); retirement pops from the left.
        self._queue: deque[str] = deque()
        #: Transactions whose final committed with no initial yet.
        self._waiting: dict[str, None] = {}
        #: Sections and operation slots folded in, and the latest commit time.
        self._position = 0
        self._slots = 0
        self._latest = -math.inf
        #: Condition (1) violations, and the pair conditions' (2) and (3).
        self._order: list[str] = []
        self._pairs: list[str] = []

    @property
    def sections(self) -> int:
        """Sections folded in."""
        return self._position

    @property
    def operation_count(self) -> int:
        """Operations folded in, over every section."""
        return self._slots // 3

    def ms_ia(self) -> CheckResult:
        violations = self._order + [
            f"{transaction_id}: final section committed without an initial section"
            for transaction_id in self._waiting
        ]
        return CheckResult(ok=not violations, violations=tuple(sorted(violations)))

    def ms_sr(self) -> CheckResult:
        ia = self.ms_ia()
        if not self._pairs:
            return ia
        return CheckResult(ok=False, violations=tuple(sorted(ia.violations + tuple(self._pairs))))

    def add(
        self, transaction_id: str, section: SectionKind, commit_time: float, rows: list
    ) -> None:
        """Fold in the next committed section.  One committed before the last
        one folded in raises :class:`CommitOutOfOrder`, and a section of a
        live transaction that already committed that section raises
        :class:`SectionOrderError`; either changes nothing."""
        if commit_time < self._latest:
            raise CommitOutOfOrder(
                f"{transaction_id}'s {section.value} section commits at {commit_time}, "
                f"before the last recorded commit at {self._latest}"
            )
        live = self._live
        state = live.get(transaction_id)
        final = section is _FINAL  # also the slot of its position: 0 or 1
        if state is None:
            state = live[transaction_id] = [0, 0, None, None, None, None, None]
        elif state[final]:
            raise SectionOrderError(f"{transaction_id}'s {section.value} section is recorded twice")
        self._latest = commit_time
        self._slots += len(rows)
        self._position = position = self._position + 1
        state[final] = position
        state[final + 2] = keys = rows[1::3]
        state[final + 4] = rows
        # Index the keys; one no other live transaction touched costs one
        # ``setdefault``.
        index = self._index
        shared = None
        for key in keys:
            if index.setdefault(key, transaction_id) is not transaction_id:
                if shared is None:
                    shared = [key]
                else:
                    shared.append(key)
        if shared is not None:
            self._meet(transaction_id, state, final, shared)

        if final:
            if not state[_INITIAL_AT]:
                self._waiting[transaction_id] = None
                return
        else:
            self._queue.append(transaction_id)
            if not state[_FINAL_AT]:
                return
            del self._waiting[transaction_id]
            self._order.append(
                f"{transaction_id}: final section committed before its initial section"
            )
        # The transaction has both sections now.
        if state[_PARTNERS]:
            self._finals_in_order(transaction_id, state)
        if not self._waiting:
            self._retire()

    def _meet(self, transaction_id: str, state: list, final: bool, shared: list) -> None:
        """Index the keys of a section that other entries hold: record the
        pairs they make conflicting, and decide condition (3) when the
        section is a final."""
        live, index = self._live, self._index
        partners = state[_PARTNERS]
        initial_at = state[_INITIAL_AT]
        rows = state[final + 4]
        late_initials = None
        for key in dict.fromkeys(shared):
            entry = index[key]
            if entry.__class__ is str:
                if entry == transaction_id:
                    continue  # its own other section
                others: Iterable[str] = (entry,)
                index[key] = {entry: None, transaction_id: None}
            else:
                others = [other for other in entry if other != transaction_id]
                entry[transaction_id] = None
            # This transaction's other section, had it written the key, made
            # the pair conflict when the later of the two touched it.
            kind = _kind(rows, key)
            for other in others:
                other_state = live[other]
                initial_kind = _kind(other_state[_INITIAL_ROWS], key)
                if partners is None or other not in partners:
                    if (
                        kind is _WRITE
                        or initial_kind is _WRITE
                        or _kind(other_state[_FINAL_ROWS], key) is _WRITE
                    ):
                        if partners is None:
                            partners = state[_PARTNERS] = {}
                        partners[other] = None
                        if other_state[_PARTNERS] is None:
                            other_state[_PARTNERS] = {}
                        other_state[_PARTNERS][transaction_id] = None
                # (3): this final conflicts with an initial that committed
                # after this transaction's initial, and commits after it.
                if (
                    final
                    and initial_at
                    and initial_kind is not None
                    and (kind is _WRITE or initial_kind is _WRITE)
                    and other_state[_INITIAL_AT] > initial_at
                ):
                    if late_initials is None:
                        late_initials = {}
                    late_initials[other] = None
        if late_initials is not None:
            final_label = section_label(transaction_id, _FINAL)
            for other in late_initials:
                self._pairs.append(
                    f"MS-SR(3) violated: {final_label} conflicts with "
                    f"{section_label(other, SectionKind.INITIAL)} but commits after it"
                )

    def _finals_in_order(self, transaction_id: str, state: list) -> None:
        """Condition (2) for every completed transaction the one that just
        completed conflicts with."""
        live = self._live
        initial_at, final_at = state[_INITIAL_AT], state[_FINAL_AT]
        for other in state[_PARTNERS]:
            other_state = live[other]
            other_initial, other_final = other_state[_INITIAL_AT], other_state[_FINAL_AT]
            if not (other_initial and other_final):
                continue
            if initial_at < other_initial:
                first, first_final, second, second_final = (
                    transaction_id, final_at, other, other_final
                )
            else:
                first, first_final, second, second_final = (
                    other, other_final, transaction_id, final_at
                )
            if second_final < first_final:
                self._pairs.append(
                    f"MS-SR(2) violated: {section_label(first, _FINAL)} must commit before "
                    f"{section_label(second, _FINAL)}"
                )

    def _retire(self) -> None:
        """Drop completed transactions from the oldest initial on, up to the
        first one still in flight."""
        live, index, queue = self._live, self._index, self._queue
        while queue:
            state = live[queue[0]]
            if not state[_FINAL_AT]:
                return
            transaction_id = queue.popleft()
            del live[transaction_id]
            for key in state[_INITIAL_KEYS] + state[_FINAL_KEYS]:
                # One dict operation for a key only this transaction held; a
                # shared entry goes back without it (a key the transaction
                # touched twice finds its entry gone, or another's).
                entry = index.pop(key, None)
                if entry is None or entry == transaction_id:
                    continue
                if entry.__class__ is dict:  # two or more, so one is left
                    entry.pop(transaction_id, None)
                    if len(entry) == 1:
                        entry = next(iter(entry))
                index[key] = entry
            partners = state[_PARTNERS]
            if partners:
                for other in partners:
                    del live[other][_PARTNERS][transaction_id]
