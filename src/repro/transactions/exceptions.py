"""Exceptions raised by the transaction layer."""

from __future__ import annotations


class TransactionAborted(RuntimeError):
    """The concurrency controller aborted the transaction.

    Under MS-SR this typically means a lock for the initial or final
    section could not be acquired; the initial commit never happened, so
    no user-visible response was produced.
    """

    def __init__(self, transaction_id: str, reason: str) -> None:
        super().__init__(f"transaction {transaction_id} aborted: {reason}")
        self.transaction_id = transaction_id
        self.reason = reason


class InvariantViolation(RuntimeError):
    """An application invariant does not hold.

    Final sections under MS-IA raise this to signal that the merge
    function could not reconcile the initial section's effects, forcing a
    retraction (undo) plus an apology.
    """

    def __init__(self, invariant: str, detail: str = "") -> None:
        message = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(message)
        self.invariant = invariant
        self.detail = detail


class SectionOrderError(RuntimeError):
    """A section was executed out of order.

    The multi-stage model requires the initial section to commit before
    the final section begins, and forbids running a section twice.
    """


class CommitOutOfOrder(RuntimeError):
    """A section was recorded with an earlier commit time than the last one.

    A :class:`~repro.transactions.history.History` that keeps no rows
    checks each section as it commits, so it needs them in ``<h`` order;
    it refuses one that is not rather than give a wrong verdict.
    """
