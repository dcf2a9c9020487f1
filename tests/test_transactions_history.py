"""Tests for execution histories and the <h ordering."""

from repro.transactions.history import History
from repro.transactions.model import SectionKind
from repro.transactions.ops import Operation, OperationKind


def _read(key: str) -> Operation:
    return Operation(OperationKind.READ, key)


def _write(key: str) -> Operation:
    return Operation(OperationKind.WRITE, key, 1)


class TestHistory:
    def test_record_and_iterate(self):
        history = History()
        history.record_section("t1", SectionKind.INITIAL, 1.0)
        history.record_section("t1", SectionKind.FINAL, 2.0)
        assert len(history) == 2
        assert [r.section for r in history] == [SectionKind.INITIAL, SectionKind.FINAL]

    def test_sections_of(self):
        history = History()
        history.record_section("t1", SectionKind.INITIAL, 1.0)
        history.record_section("t2", SectionKind.INITIAL, 2.0)
        assert len(history.sections_of("t1")) == 1

    def test_section_lookup(self):
        history = History()
        history.record_section("t1", SectionKind.INITIAL, 1.0)
        assert history.section("t1", SectionKind.INITIAL) is not None
        assert history.section("t1", SectionKind.FINAL) is None

    def test_transaction_ids_in_first_commit_order(self):
        history = History()
        history.record_section("b", SectionKind.INITIAL, 1.0)
        history.record_section("a", SectionKind.INITIAL, 2.0)
        history.record_section("b", SectionKind.FINAL, 3.0)
        assert history.transaction_ids() == ["b", "a"]

    def test_ordered_before_by_commit_time(self):
        history = History()
        assert history.record_section("t1", SectionKind.INITIAL, 1.0) is None
        history.record_section("t2", SectionKind.INITIAL, 5.0)
        first, second = history
        assert history.ordered_before(first, second)
        assert not history.ordered_before(second, first)

    def test_ordered_before_ties_broken_by_sequence(self):
        history = History()
        history.record_section("t1", SectionKind.INITIAL, 1.0)
        history.record_section("t2", SectionKind.INITIAL, 1.0)
        first, second = history
        assert (first.sequence, second.sequence) == (1, 2)
        assert history.ordered_before(first, second)
        assert not history.ordered_before(second, first)

    def test_conflicting_pairs_detects_rw_conflicts(self):
        history = History()
        history.record_section("t1", SectionKind.INITIAL, 1.0, operations=(_read("x"),))
        history.record_section("t2", SectionKind.INITIAL, 2.0, operations=(_write("x"),))
        history.record_section("t3", SectionKind.INITIAL, 3.0, operations=(_read("y"),))
        pairs = history.conflicting_pairs()
        assert ("t1", "t2") in pairs
        assert all("t3" not in pair for pair in pairs)

    def test_section_record_labels(self):
        history = History()
        history.record_section("t9", SectionKind.FINAL, 1.0)
        assert history.section("t9", SectionKind.FINAL).label == "s^f_t9"

    def test_conflicts_across_sections(self):
        history = History()
        history.record_section("t1", SectionKind.FINAL, 2.0, operations=(_write("x"),))
        history.record_section("t2", SectionKind.INITIAL, 3.0, operations=(_read("x"),))
        assert history.conflicting_pairs() == [("t1", "t2")]
