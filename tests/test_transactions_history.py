"""Tests for execution histories and the <h ordering.

The histories here are built by hand and keep their rows (``rows_kept``);
the scans they exercise are the pairwise oracle's, in ``tests/helpers.py``.
"""

import pytest

from repro.transactions.history import History
from repro.transactions.model import SectionKind
from repro.transactions.ops import Operation, OperationKind

from helpers import conflicting_pairs, ordered_before, record_section, section, sections_of

pytestmark = pytest.mark.usefixtures("rows_kept")


def _read(key: str) -> Operation:
    return Operation(OperationKind.READ, key)


def _write(key: str) -> Operation:
    return Operation(OperationKind.WRITE, key, 1)


class TestHistory:
    def test_record_and_iterate(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        record_section(history, "t1", SectionKind.FINAL, 2.0)
        assert len(history) == 2
        assert [r.section for r in history] == [SectionKind.INITIAL, SectionKind.FINAL]

    def test_sections_of(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        record_section(history, "t2", SectionKind.INITIAL, 2.0)
        assert len(sections_of(history, "t1")) == 1

    def test_section_lookup(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        assert section(history, "t1", SectionKind.INITIAL) is not None
        assert section(history, "t1", SectionKind.FINAL) is None

    def test_transaction_ids_in_first_commit_order(self):
        history = History()
        record_section(history, "b", SectionKind.INITIAL, 1.0)
        record_section(history, "a", SectionKind.INITIAL, 2.0)
        record_section(history, "b", SectionKind.FINAL, 3.0)
        assert history.transaction_ids() == ["b", "a"]

    def test_ordered_before_by_commit_time(self):
        history = History()
        assert record_section(history, "t1", SectionKind.INITIAL, 1.0) is None
        record_section(history, "t2", SectionKind.INITIAL, 5.0)
        first, second = history
        assert ordered_before(first, second)
        assert not ordered_before(second, first)

    def test_ordered_before_ties_broken_by_sequence(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        record_section(history, "t2", SectionKind.INITIAL, 1.0)
        first, second = history
        assert (first.sequence, second.sequence) == (1, 2)
        assert ordered_before(first, second)
        assert not ordered_before(second, first)

    def test_conflicting_pairs_detects_rw_conflicts(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_read("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_write("x"),))
        record_section(history, "t3", SectionKind.INITIAL, 3.0, operations=(_read("y"),))
        pairs = conflicting_pairs(history)
        assert ("t1", "t2") in pairs
        assert all("t3" not in pair for pair in pairs)

    def test_section_record_labels(self):
        history = History()
        record_section(history, "t9", SectionKind.FINAL, 1.0)
        assert section(history, "t9", SectionKind.FINAL).label == "s^f_t9"

    def test_conflicts_across_sections(self):
        history = History()
        record_section(history, "t1", SectionKind.FINAL, 2.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 3.0, operations=(_read("x"),))
        assert conflicting_pairs(history) == [("t1", "t2")]
