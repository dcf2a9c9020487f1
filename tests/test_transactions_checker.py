"""Tests for the MS-SR / MS-IA history checkers.

The histories here are built by hand and keep their rows (``rows_kept``),
so the checks re-fold them in ``<h`` order.
"""

import pytest

from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.history import History
from repro.transactions.model import SectionKind
from repro.transactions.ops import Operation, OperationKind

from helpers import record_section

pytestmark = pytest.mark.usefixtures("rows_kept")


def _read(key: str) -> Operation:
    return Operation(OperationKind.READ, key)


def _write(key: str) -> Operation:
    return Operation(OperationKind.WRITE, key, 1)


class TestMSIAChecker:
    def test_valid_history(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        record_section(history, "t2", SectionKind.INITIAL, 2.0)
        record_section(history, "t1", SectionKind.FINAL, 3.0)
        record_section(history, "t2", SectionKind.FINAL, 4.0)
        assert check_ms_ia(history)

    def test_final_before_initial_is_violation(self):
        history = History()
        record_section(history, "t1", SectionKind.FINAL, 1.0)
        record_section(history, "t1", SectionKind.INITIAL, 2.0)
        result = check_ms_ia(history)
        assert not result
        assert result.violations

    def test_final_without_initial_is_violation(self):
        history = History()
        record_section(history, "t1", SectionKind.FINAL, 1.0)
        assert not check_ms_ia(history)

    def test_initial_without_final_is_allowed(self):
        """A transaction whose final section has not run yet is not a violation."""
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0)
        assert check_ms_ia(history)

    def test_interleaved_sections_allowed_under_ms_ia(self):
        """MS-IA permits another transaction's sections between a
        transaction's initial and final sections even when they conflict."""
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_read("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.FINAL, 3.0, operations=(_write("x"),))
        record_section(history, "t1", SectionKind.FINAL, 4.0, operations=(_write("x"),))
        assert check_ms_ia(history)


class TestMSSRChecker:
    def test_serial_conflicting_transactions_are_valid(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_read("x"),))
        record_section(history, "t1", SectionKind.FINAL, 2.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 3.0, operations=(_read("x"),))
        record_section(history, "t2", SectionKind.FINAL, 4.0, operations=(_write("x"),))
        assert check_ms_sr(history)

    def test_lost_update_anomaly_detected(self):
        """The increment anomaly of §4.2: both initials read x before either
        final writes it — the finals are not ordered next to their initials."""
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_read("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_read("x"),))
        record_section(history, "t1", SectionKind.FINAL, 3.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.FINAL, 4.0, operations=(_write("x"),))
        result = check_ms_sr(history)
        assert not result
        assert any("MS-SR(3)" in violation for violation in result.violations)

    def test_final_sections_must_follow_initial_order(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.FINAL, 3.0, operations=(_read("y"),))
        record_section(history, "t1", SectionKind.FINAL, 4.0, operations=(_read("y"),))
        result = check_ms_sr(history)
        assert not result
        assert any("MS-SR(2)" in violation for violation in result.violations)

    def test_non_conflicting_transactions_can_interleave(self):
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_write("y"),))
        record_section(history, "t2", SectionKind.FINAL, 3.0, operations=(_read("y"),))
        record_section(history, "t1", SectionKind.FINAL, 4.0, operations=(_read("x"),))
        assert check_ms_sr(history)

    def test_non_conflicting_final_and_initial_may_reorder(self):
        """MS-SR(3) only applies when s^f_k conflicts with s^i_j."""
        history = History()
        record_section(history, "t1", SectionKind.INITIAL, 1.0, operations=(_write("x"),))
        record_section(history, "t2", SectionKind.INITIAL, 2.0, operations=(_read("x"),))
        record_section(history, "t1", SectionKind.FINAL, 3.0, operations=(_read("z"),))
        record_section(history, "t2", SectionKind.FINAL, 4.0, operations=(_read("z"),))
        assert check_ms_sr(history)

    def test_empty_history_is_valid(self):
        assert check_ms_sr(History())
        assert check_ms_ia(History())
