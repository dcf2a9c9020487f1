"""Execution histories and the ``<h`` ordering.

Section 4.3 defines MS-SR over an ordering relation ``<h`` on *sections*,
"relative to the commitment rather than the beginning of the section":
``s <h s'`` when ``s`` committed first, ties broken by the order the
(single-threaded) controller committed them in.

A :class:`History` checks each committed section as it arrives: its
``record_rows`` *is* the running
:meth:`OrderFold.add <repro.transactions.checker.OrderFold.add>`, so a
controller's call costs the fold and no wrapper.  The fold keeps the
in-flight window of transactions and counts sections and operations — no
row.
Since the fold needs sections in ``<h`` order, a section recorded with an
earlier commit time than the last one raises
:class:`~repro.transactions.exceptions.CommitOutOfOrder`.  Iterating the
sections or reading :meth:`History.transaction_ids` raises
:class:`~repro.storage.kvstore.RowsNotKept`.

The rows are kept only when the class-level :attr:`History.keep_rows` is
on when a history is built (tests turn it on).  Then a history is two flat
lists.  Every committed operation goes into one operation list as three
slots, ``kind, key, value`` — no object per operation, none per section.
Every committed section is four slots of the section list,
``transaction_id, section, commit_time, end``, where ``end`` is where the
section's operations end in the operation list (they start where the
previous section's end).  Sections may then be recorded in any order:
:func:`~repro.transactions.checker.check_ms_sr` folds the rows in ``<h``
order when it is called.  :class:`SectionRecord` (with its tuple of
:class:`Operation`) is the read API: iteration reads one rendered list
that grows by the sections committed since the last read and is kept, so
walking the history many times renders each section once; a record's
``sequence`` is its position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro.storage.kvstore import RowsNotKept
from repro.transactions.checker import OrderFold, section_label
from repro.transactions.exceptions import SectionOrderError
from repro.transactions.model import SectionKind
from repro.transactions.ops import Operation


@dataclass(frozen=True)
class SectionRecord:
    """One committed section execution."""

    transaction_id: str
    section: SectionKind
    commit_time: float
    sequence: int
    operations: tuple[Operation, ...] = ()

    @property
    def label(self) -> str:
        """Compact ``s^i_t`` style label for error messages."""
        return section_label(self.transaction_id, self.section)


def _append_rows(
    sections: list,
    operations: list,
    transaction_id: str,
    section: SectionKind,
    commit_time: float,
    rows: list,
) -> None:
    """Append a committed section to a history's kept rows."""
    operations += rows
    sections += (transaction_id, section, commit_time, len(operations))


class History:
    """The committed sections of a run, checked in commit order.

    ``record_rows(transaction_id, section, commit_time, rows)`` records a
    committed section whose operations are flat ``kind, key, value, …``
    slots (a section context's ``operation_rows``).  It is an attribute,
    set when the history is built: the running fold's
    :meth:`~repro.transactions.checker.OrderFold.add` (a section committed
    before the last raises
    :class:`~repro.transactions.exceptions.CommitOutOfOrder`), or with rows
    kept, an append to the rows (bound to the two lists, not the history,
    so a history is no reference cycle).
    """

    #: Keep every section's rows for iteration and re-folding.  Read when a
    #: history is built; only tests turn it on.
    keep_rows = False

    __slots__ = ("record_rows", "_fold", "_rows", "_operations", "_rendered")

    def __init__(self) -> None:
        #: The running check, ``None`` when the rows are kept instead.
        self._fold: OrderFold | None = None
        #: Flat ``transaction_id, section, commit_time, end`` section rows,
        #: every committed operation flat (``kind, key, value, kind, …``) and
        #: the sections rendered so far (a prefix); ``None`` without rows.
        self._rows: list | None = None
        self._operations: list | None = None
        self._rendered: list[SectionRecord] | None = None
        if self.keep_rows:
            self._rows, self._operations, self._rendered = [], [], []
            self.record_rows = partial(_append_rows, self._rows, self._operations)
        else:
            self._fold = OrderFold()
            self.record_rows = self._fold.add

    def fold(self) -> OrderFold:
        """The check over every committed section: the running one, or for a
        history keeping rows, a new fold of the rows in ``<h`` order (one
        with a section recorded twice raises
        :class:`~repro.transactions.exceptions.SectionOrderError`)."""
        if self._fold is not None:
            return self._fold
        rows, operations = self._rows, self._operations
        if len(set(zip(rows[0::4], rows[1::4]))) < len(rows) // 4:
            raise SectionOrderError("a transaction's section is recorded twice")
        fold = OrderFold()
        for at in sorted(range(0, len(rows), 4), key=lambda at: (rows[at + 2], at)):
            start = rows[at - 1] if at else 0
            fold.add(*rows[at : at + 3], operations[start : rows[at + 3]])
        return fold

    @property
    def operation_count(self) -> int:
        """Operations committed, over every section."""
        fold = self._fold
        return len(self._operations) // 3 if fold is None else fold.operation_count

    def _kept_rows(self) -> list:
        rows = self._rows
        if rows is None:
            raise RowsNotKept(
                "this History checks each section as it commits and keeps only counts; "
                "turn History.keep_rows on before building it"
            )
        return rows

    def _sections(self) -> list[SectionRecord]:
        """Every committed section, rendered; only new rows are built."""
        rows = self._kept_rows()
        rendered, operations = self._rendered, self._operations
        start = rows[4 * len(rendered) - 1] if rendered else 0
        for at in range(4 * len(rendered), len(rows), 4):
            transaction_id, section, commit_time, end = rows[at : at + 4]
            executed = tuple(
                map(
                    Operation,
                    operations[start:end:3],
                    operations[start + 1 : end : 3],
                    operations[start + 2 : end : 3],
                )
            )
            rendered.append(
                SectionRecord(transaction_id, section, commit_time, at // 4 + 1, executed)
            )
            start = end
        return rendered

    def __iter__(self) -> Iterator[SectionRecord]:
        return iter(self._sections())

    def __len__(self) -> int:
        fold = self._fold
        return len(self._rows) // 4 if fold is None else fold.sections

    def transaction_ids(self) -> list[str]:
        """Distinct transaction ids in first-commit order."""
        return list(dict.fromkeys(self._kept_rows()[0::4]))
