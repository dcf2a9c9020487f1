"""Generalized multi-stage transactions (paper Section 3.5).

The two-section model generalises to ``m`` stages ``s0 ... s(m-1)``: the
first stage is the initial stage, the last is the final stage, and the
rest are intermediate stages.  A transaction then has one section per
stage, triggered by that stage's (increasingly accurate) detection.

The controller below enforces the generalised ordering condition — each
section commits only after the previous section of the same transaction —
while keeping MS-IA's short lock tenures (locks are acquired and released
per section).  Bandwidth thresholding may stop the cascade early; the
remaining sections are then run immediately with the last stage's labels
(paper: "the sequence stops and the remaining transaction sections are
performed").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager
from repro.storage.wal import UndoLog
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.model import SectionContext, SectionKind, SectionSpec
from repro.transactions.ms_sr import ControllerStats


@dataclass
class StagedTransaction:
    """A transaction with one section per processing stage.

    Attributes
    ----------
    transaction_id:
        Unique identifier.
    sections:
        One :class:`SectionSpec` per stage, ordered from the initial stage
        to the final stage.  At least two sections are required (the
        two-stage model is the ``m = 2`` special case).
    trigger:
        Free-form description of what triggered the transaction.
    """

    transaction_id: str
    sections: tuple[SectionSpec, ...]
    trigger: str = ""
    committed_stages: int = 0
    results: list[Any] = field(default_factory=list)
    apologies: tuple[str, ...] = ()
    #: What the committed stages passed forward; ``None`` before the first.
    handoff: dict[str, Any] | None = None
    aborted: bool = False

    def __post_init__(self) -> None:
        if len(self.sections) < 2:
            raise ValueError("a staged transaction needs at least two sections")

    @property
    def num_stages(self) -> int:
        return len(self.sections)

    @property
    def is_fully_committed(self) -> bool:
        return self.committed_stages == self.num_stages

    @property
    def next_stage(self) -> int:
        """Index of the next section to run."""
        return self.committed_stages


class StagedController:
    """MS-IA-style concurrency control for ``m``-stage transactions.

    Each section acquires its locks, executes, commits and releases —
    the generalisation of Algorithm 2.  The generalised ordering guarantee
    (section ``i`` commits before section ``i+1`` of the same transaction)
    is enforced structurally: sections can only be run in order.
    """

    def __init__(self, store: KeyValueStore, lock_manager: LockManager | None = None) -> None:
        self._store = store
        self._locks = lock_manager if lock_manager is not None else LockManager()
        self._undo_log = UndoLog(store)
        self.stats = ControllerStats()

    @property
    def store(self) -> KeyValueStore:
        return self._store

    @property
    def lock_manager(self) -> LockManager:
        return self._locks

    def process_stage(
        self,
        transaction: StagedTransaction,
        stage: int,
        labels: Any = None,
        now: float = 0.0,
    ) -> Any:
        """Run section ``stage`` of ``transaction``.

        Raises :class:`SectionOrderError` if an earlier section has not
        committed yet (or the section already ran), and
        :class:`TransactionAborted` if the section's locks are denied
        while the transaction is still in its initial stage.
        """
        if transaction.aborted:
            raise SectionOrderError(f"transaction {transaction.transaction_id} already aborted")
        if stage != transaction.next_stage:
            raise SectionOrderError(
                f"stage {stage} cannot run: next stage of {transaction.transaction_id} "
                f"is {transaction.next_stage}"
            )

        section = transaction.sections[stage]
        holder = transaction.transaction_id
        exclusive, shared = section.rwset.lock_requests()
        if not self._locks.acquire_all(holder, exclusive, shared, now):
            if stage == 0:
                transaction.aborted = True
                self.stats.aborts += 1
                raise TransactionAborted(holder, f"stage {stage} lock denied")
            raise TransactionAborted(holder, f"stage {stage} lock denied; retry later")

        # The last stage is the final (apology) section; every earlier stage —
        # initial or intermediate — may still record handoff state for the
        # stages after it, so it uses the initial-section context kind.
        is_last_stage = stage == transaction.num_stages - 1
        kind = SectionKind.FINAL if is_last_stage else SectionKind.INITIAL
        # The stage writes into a copy, which replaces the transaction's
        # handoff only once the stage has run.
        handoff = {} if transaction.handoff is None else dict(transaction.handoff)
        context = SectionContext(
            transaction_id=holder,
            section=kind,
            store=self._store,
            labels=labels,
            handoff=handoff,
            undo_log=self._undo_log,
        )
        result = section.body(context)

        transaction.results.append(result)
        transaction.apologies = transaction.apologies + context.apologies
        transaction.handoff = handoff
        if stage == 0:
            self.stats.initial_commits += 1
        transaction.committed_stages += 1
        if transaction.is_fully_committed:
            self.stats.final_commits += 1
            self._undo_log.forget(holder)
        self._locks.release_all(holder, now=now)
        return result

    def finish_remaining(
        self,
        transaction: StagedTransaction,
        labels: Any = None,
        now: float = 0.0,
    ) -> list[Any]:
        """Run every remaining section with the same labels.

        Used when bandwidth thresholding stops the cascade early: the
        remaining sections execute immediately with the last stage's
        labels.
        """
        results = []
        while not transaction.is_fully_committed:
            results.append(self.process_stage(transaction, transaction.next_stage, labels, now))
        return results
