"""Execution histories and the ``<h`` ordering.

Section 4.3 defines MS-SR over an ordering relation ``<h`` on *sections*,
"relative to the commitment rather than the beginning of the section".
The :class:`History` records each executed section with its commit
timestamp and its executed operations; checkers
(:mod:`repro.transactions.checker`) then validate the MS-SR / MS-IA
conditions over the recorded order.

A history is two flat lists.  Every committed operation goes into one
operation list as three slots, ``kind, key, value`` — no object per
operation, none per section.  Every committed section is four slots of
the section list, ``transaction_id, section, commit_time, end``, where
``end`` is where the section's operations end in the operation list (they
start where the previous section's end).  :class:`SectionRecord` (with
its tuple of :class:`Operation`) is the read API: iteration,
``sections_of``, ``section`` and, through them, the checkers read one
rendered list that grows by the sections committed since the last read
and is kept, so walking the history many times renders each section
once; a record's ``sequence`` is its position.  ``len`` and
``transaction_ids`` read the section list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.transactions.ops import Operation, operations_conflict
from repro.transactions.model import SectionKind


@dataclass(frozen=True)
class SectionRecord:
    """One committed section execution."""

    transaction_id: str
    section: SectionKind
    commit_time: float
    sequence: int
    operations: tuple[Operation, ...] = ()

    def conflicts_with(self, other: "SectionRecord") -> bool:
        """True when the two sections contain conflicting operations."""
        return operations_conflict(self.operations, other.operations)

    @property
    def label(self) -> str:
        """Compact ``s^i_t`` style label for error messages."""
        suffix = "i" if self.section is SectionKind.INITIAL else "f"
        return f"s^{suffix}_{self.transaction_id}"


@dataclass
class History:
    """Append-only log of committed sections, ordered by commitment."""

    #: Flat ``transaction_id, section, commit_time, end`` section rows.
    _rows: list = field(default_factory=list)
    #: Every committed operation, flat: ``kind, key, value, kind, …``.
    _operations: list = field(default_factory=list)
    #: The sections rendered so far (a prefix), grown by :meth:`_sections`.
    _rendered: list[SectionRecord] = field(default_factory=list, repr=False, compare=False)

    def record_rows(
        self, transaction_id: str, section: SectionKind, commit_time: float, rows: list
    ) -> None:
        """Append a committed section whose operations are flat ``kind, key,
        value, …`` slots (a section context's ``operation_rows``)."""
        operations = self._operations
        operations += rows
        self._rows += (transaction_id, section, commit_time, len(operations))

    def record_section(
        self,
        transaction_id: str,
        section: SectionKind,
        commit_time: float,
        operations: Iterable[Operation | tuple] = (),
    ) -> None:
        """Append a committed section given as :class:`Operation` objects or
        ``(kind, key, value)`` tuples, flattened once."""
        rows: list = []
        for operation in operations:
            if not isinstance(operation, Operation):
                operation = Operation(*operation)
            rows += (operation.kind, operation.key, operation.value)
        self.record_rows(transaction_id, section, commit_time, rows)

    def _sections(self) -> list[SectionRecord]:
        """Every committed section, rendered; only new rows are built."""
        rendered, rows, operations = self._rendered, self._rows, self._operations
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
        return len(self._rows) // 4

    def clear(self) -> None:
        """Drop all recorded sections and restart the sequence.

        Controllers keep a reference to the history they were built with,
        so clearing in place (rather than swapping in a new object) starts
        a fresh history for every component at once.
        """
        self._rows.clear()
        self._operations.clear()
        self._rendered.clear()

    def sections_of(self, transaction_id: str) -> list[SectionRecord]:
        """Committed sections of one transaction, in commit order."""
        return [record for record in self._sections() if record.transaction_id == transaction_id]

    def section(self, transaction_id: str, kind: SectionKind) -> SectionRecord | None:
        """A specific section of a transaction, or None if not committed."""
        for record in self._sections():
            if record.transaction_id == transaction_id and record.section is kind:
                return record
        return None

    def transaction_ids(self) -> list[str]:
        """Distinct transaction ids in first-commit order."""
        return list(dict.fromkeys(self._rows[0::4]))

    def ordered_before(self, first: SectionRecord, second: SectionRecord) -> bool:
        """The ``<h`` relation: ``first`` committed before ``second``.

        Ties on commit time are broken by append order, which reflects the
        order the (single-threaded) controller committed them in.
        """
        if first.commit_time != second.commit_time:
            return first.commit_time < second.commit_time
        return first.sequence < second.sequence

    def conflicting_pairs(self) -> list[tuple[str, str]]:
        """Pairs of distinct transactions that conflict (in either section)."""
        ids = self.transaction_ids()
        pairs: list[tuple[str, str]] = []
        for i, left in enumerate(ids):
            left_sections = self.sections_of(left)
            for right in ids[i + 1:]:
                right_sections = self.sections_of(right)
                if any(a.conflicts_with(b) for a in left_sections for b in right_sections):
                    pairs.append((left, right))
        return pairs
