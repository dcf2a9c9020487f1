"""Two-Stage 2PL — the MS-SR concurrency controller (Algorithm 1).

The controller guarantees multi-stage serializability by acquiring the
locks of *both* sections before the initial commit and holding them until
the final commit:

1. acquire locks for the initial section's read/write set; if that fails,
   abort;
2. execute the initial section;
3. acquire locks for the final section's read/write set; if that fails,
   abort (the initial commit has not happened yet, so aborting is safe);
4. **initial commit** — the response is returned to the client;
5. when the corrected labels arrive, execute the final section;
6. **final commit**; release all locks.

The long lock tenure (the locks ride out the cloud round-trip) is exactly
what Figure 6a measures, and the abort-on-denial behaviour under hotspot
contention is what Figure 6b measures.  Step 1 is the *admission*
(:meth:`AdmittingController.admit`): under that contention most attempts
end there, so a denied one is counted and dropped before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager
from repro.storage.wal import UndoLog
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import (
    MultiStageTransaction,
    SectionContext,
    SectionKind,
    TransactionStatus,
)


@dataclass
class ControllerStats:
    """Counters shared by both controllers."""

    initial_commits: int = 0
    final_commits: int = 0
    aborts: int = 0

    @property
    def attempts(self) -> int:
        return self.initial_commits + self.aborts

    @property
    def abort_rate(self) -> float:
        """Fraction of attempted transactions that aborted."""
        return self.aborts / self.attempts if self.attempts else 0.0


class AdmittingController:
    """The initial-section entry points every controller shares: a
    subclass implements :meth:`admit`, and :meth:`process_initial` raises
    on top of it, so each controller has one first lock pass."""

    #: What a raising :meth:`process_initial` says about a denied admission.
    denial = "initial-section lock denied"

    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Take the draft's first locks (the *admission*) and, when granted,
        build it and run its initial section; returns the initial-committed
        transaction.  A denied admission counts its abort and returns
        ``None``, building and raising nothing; a failure after it (a
        denied final lock pass under single-node MS-SR, a failed initial
        2PC under distributed MS-IA) still raises."""
        raise NotImplementedError

    def process_initial(
        self,
        transaction: MultiStageTransaction,
        labels: Any = None,
        now: float = 0.0,
    ) -> Any:
        """Run :meth:`admit` on a built transaction; returns the initial
        section's result and raises :class:`TransactionAborted` when the
        admission is denied."""
        if transaction.status is not TransactionStatus.PENDING:
            raise SectionOrderError(
                f"transaction {transaction.transaction_id} already processed"
            )
        if self.admit(transaction, labels, now) is None:
            transaction.mark_aborted()
            raise TransactionAborted(transaction.transaction_id, self.denial)
        return transaction.initial_result


class TwoStage2PL(AdmittingController):
    """MS-SR controller: two-stage two-phase locking.

    Parameters
    ----------
    store:
        The edge node's key-value store.
    lock_manager:
        Shared lock manager (one per edge node).
    history:
        Optional history recorder; when provided, each committed section
        is recorded (folded into its running check, or kept as rows when
        :attr:`History.keep_rows` is on) so MS-SR can be audited with
        :func:`repro.transactions.checker.check_ms_sr`.
    """

    name = "MS-SR"

    def __init__(
        self,
        store: KeyValueStore,
        lock_manager: LockManager | None = None,
        history: History | None = None,
    ) -> None:
        self._store = store
        self._locks = lock_manager if lock_manager is not None else LockManager()
        self._history = history
        self._undo_log = UndoLog(store)
        #: holder -> the initial section's labels, until the final section runs.
        self._pending: dict[str, Any] = {}
        self.stats = ControllerStats()

    @property
    def store(self) -> KeyValueStore:
        return self._store

    @property
    def lock_manager(self) -> LockManager:
        return self._locks

    @property
    def history(self) -> History | None:
        return self._history

    # -- initial section ---------------------------------------------------
    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Run Algorithm 1 up to (and including) the initial commit.

        The admission takes the initial section's locks; the final
        section's are taken after the initial body, and a denial there
        undoes the body and raises :class:`TransactionAborted`.
        """
        holder = draft.transaction_id
        locks = self._locks
        exclusive, shared = draft.initial_lock_requests()
        if not locks.acquire_all(holder, exclusive, shared, now):
            locks.release_all(holder, now=now)
            self.stats.aborts += 1
            return None

        transaction = draft.materialise()
        context = SectionContext(
            holder, SectionKind.INITIAL, self._store, labels, None, None, self._undo_log
        )
        result = transaction.initial.body(context)

        exclusive, shared = transaction.final.rwset.lock_requests()
        if not locks.acquire_all(holder, exclusive, shared, now):
            # The initial commit has not happened, so aborting (and undoing
            # the initial section's writes) is still allowed.
            self._undo_log.undo(holder)
            self._abort(transaction, now, "final-section lock denied")

        transaction.mark_initial_committed(result, context.handoff, now)
        self._pending[holder] = labels
        self.stats.initial_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.INITIAL, now, context.operation_rows)
        return transaction

    # -- final section -----------------------------------------------------
    def process_final(
        self,
        transaction: MultiStageTransaction,
        labels: Any = None,
        now: float = 0.0,
    ) -> Any:
        """Execute the final section and release every lock.

        MS-SR guarantees the final section commits: all its locks were
        acquired before the initial commit, so nothing can stop it here.
        """
        holder = transaction.transaction_id
        if holder not in self._pending:
            raise SectionOrderError(f"transaction {holder} has no pending final section")
        initial_labels = self._pending.pop(holder)

        context = SectionContext(
            holder,
            SectionKind.FINAL,
            self._store,
            labels,
            initial_labels,
            transaction.handoff,
            self._undo_log,
        )
        result = transaction.final.body(context)
        transaction.mark_committed(result, context.apologies, now)
        self.stats.final_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.FINAL, now, context.operation_rows)

        self._undo_log.forget(holder)
        self._locks.release_all(holder, now=now)
        return result

    # -- helpers -----------------------------------------------------------
    def _abort(self, transaction: MultiStageTransaction, now: float, reason: str) -> None:
        holder = transaction.transaction_id
        self._locks.release_all(holder, now=now)
        transaction.mark_aborted()
        self.stats.aborts += 1
        raise TransactionAborted(holder, reason)

    @property
    def pending_finals(self) -> tuple[str, ...]:
        """Ids of transactions waiting for their final section."""
        return tuple(self._pending)
