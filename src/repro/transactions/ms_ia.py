"""MS-IA — multi-stage invariant confluence with apologies (Algorithm 2).

Under MS-IA the initial section commits as soon as it finishes and its
locks are released immediately; the final section later acquires its own
locks, checks application invariants, repairs what it can (merge), and
retracts + apologises for what it cannot.  The controller therefore:

1. acquires the initial section's locks, executes it, **initial
   commits**, releases the locks;
2. when corrected labels arrive, acquires the final section's locks,
   executes it (the body may call ``ctx.retract_initial_effects()`` and
   ``ctx.apologize(...)``), **final commits**, releases the locks.

Compared with Two-Stage 2PL this keeps lock tenures in the
milliseconds (Figure 6a) and — when transactions are funnelled through
the :class:`~repro.transactions.sequencer.Sequencer` — never aborts
(Figure 6b).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager
from repro.storage.wal import UndoLog
from repro.transactions.exceptions import (
    InvariantViolation,
    SectionOrderError,
    TransactionAborted,
)
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionContext, SectionKind
from repro.transactions.ms_sr import AdmittingController, ControllerStats


#: An invariant is a named predicate over the store's current snapshot.
Invariant = Callable[[KeyValueStore], bool]


class MSIAController(AdmittingController):
    """MS-IA controller: short lock tenures, apologies in the final section.

    Parameters
    ----------
    store:
        The edge node's key-value store.
    lock_manager:
        Shared lock manager.
    history:
        Optional history recorder for auditing with
        :func:`repro.transactions.checker.check_ms_ia`.
    invariants:
        Named application invariants checked after every final section.
        If an invariant fails after the final body ran, the controller
        retracts the transaction's remaining effects and records an
        automatic apology — the "apply-then-check" pattern of §4.4.
    """

    name = "MS-IA"

    def __init__(
        self,
        store: KeyValueStore,
        lock_manager: LockManager | None = None,
        history: History | None = None,
        invariants: dict[str, Invariant] | None = None,
    ) -> None:
        self._store = store
        self._locks = lock_manager if lock_manager is not None else LockManager()
        self._history = history
        self._undo_log = UndoLog(store)
        self._invariants = dict(invariants or {})
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

    @property
    def undo_log(self) -> UndoLog:
        return self._undo_log

    def register_invariant(self, name: str, predicate: Invariant) -> None:
        """Add an application invariant checked after final sections."""
        self._invariants[name] = predicate

    # -- initial section ---------------------------------------------------
    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Run the initial section and commit it immediately.

        The admission takes the initial section's locks; it is denied only
        under contention, which the sequencer prevents by never running
        conflicting transactions concurrently.
        """
        holder = draft.transaction_id
        exclusive, shared = draft.initial_lock_requests()
        if not self._locks.acquire_all(holder, exclusive, shared, now):
            self.stats.aborts += 1
            return None

        transaction = draft.materialise()
        context = SectionContext(
            holder, SectionKind.INITIAL, self._store, labels, None, None, self._undo_log
        )
        result = transaction.initial.body(context)
        transaction.mark_initial_committed(result, context.handoff, now)
        self.stats.initial_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.INITIAL, now, context.operation_rows)

        # Unlike MS-SR, the locks are released right after the initial commit.
        self._locks.release_all(holder, now=now)
        self._pending[holder] = labels
        return transaction

    # -- final section -----------------------------------------------------
    def process_final(
        self,
        transaction: MultiStageTransaction,
        labels: Any = None,
        now: float = 0.0,
    ) -> Any:
        """Run the final (apology/merge) section and commit it.

        The final section's own lock acquisition may fail under external
        contention; per the paper's guarantee that an initially committed
        transaction must finally commit, the controller *retries by
        design*: lock denial raises :class:`TransactionAborted` only when
        ``strict`` semantics are needed — here we keep acquiring after
        releasing conflicting holders is not possible, so the caller
        (sequencer or edge node) is expected to serialize finals.  In the
        single-threaded prototype this path cannot be taken concurrently.
        """
        holder = transaction.transaction_id
        if holder not in self._pending:
            raise SectionOrderError(f"transaction {holder} has no pending final section")
        initial_labels = self._pending.pop(holder)

        exclusive, shared = transaction.final.rwset.lock_requests()
        if not self._locks.acquire_all(holder, exclusive, shared, now):
            # Cannot abort (the initial section already committed); put the
            # transaction back and surface the contention to the caller.
            self._pending[holder] = initial_labels
            raise TransactionAborted(holder, "final-section lock denied; retry later")

        context = SectionContext(
            holder,
            SectionKind.FINAL,
            self._store,
            labels,
            initial_labels,
            transaction.handoff,
            self._undo_log,
        )
        try:
            result = transaction.final.body(context)
        except InvariantViolation as violation:
            # The merge could not reconcile the initial effects: retract and apologise.
            keys = context.retract_initial_effects()
            context.apologize(
                f"invariant {violation.invariant!r} could not be preserved; "
                f"retracted writes to {sorted(keys)}"
            )
            result = None

        failed = self._failed_invariants()
        if failed:
            keys = context.retract_initial_effects()
            context.apologize(
                f"post-commit invariant check failed ({', '.join(failed)}); "
                f"retracted writes to {sorted(keys)}"
            )

        transaction.mark_committed(result, context.apologies, now)
        self.stats.final_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.FINAL, now, context.operation_rows)

        self._undo_log.forget(holder)
        self._locks.release_all(holder, now=now)
        return result

    # -- helpers -----------------------------------------------------------
    def _failed_invariants(self) -> list[str]:
        return [name for name, predicate in self._invariants.items() if not predicate(self._store)]

    @property
    def pending_finals(self) -> tuple[str, ...]:
        """Ids of transactions waiting for their final section."""
        return tuple(self._pending)

    def cascade_retract(self, transaction_id: str) -> frozenset[str]:
        """Retract a transaction and return the ids of dependents.

        Implements the cascading-retraction discussion of §4.4: undo the
        given transaction's surviving writes and report which other
        in-flight transactions wrote the same keys, so the application can
        decide whether to compensate them too.
        """
        dependents = self._undo_log.dependents(transaction_id)
        self._undo_log.undo(transaction_id)
        return dependents
