"""Multi-partition multi-stage transactions (paper Section 4.5).

When a transaction's data spans multiple partitions (each owned by a
different edge node), lock requests for remote keys are routed to the
owning partition's lock manager, and the partitions run a two-phase
commit at the end of a section to make the distributed commit atomic:

* under **MS-SR**, atomic commitment runs once, at the end of the final
  section (the locks are not released until then anyway);
* under **MS-IA**, atomic commitment runs at the end of *both* the
  initial and the final sections, because each section commits and
  releases its locks independently.

The controllers below implement that extension on top of the
single-partition controllers' semantics, buffering each section's writes
and applying them through the :class:`TwoPhaseCommitCoordinator`.

A lock lives through one lifecycle, the same on both controllers.  It
starts with the **admission**, a transaction's first lock pass
(:func:`~repro.storage.partition.take_locks`): all-or-nothing, routed to
the owning partitions — the initial section's locks under MS-IA, both
sections' under MS-SR.  The pass probes every request before it grants
any, so a denied admission takes no lock and builds no plan: it counts
its abort (and a failure abort when the request that failed sits on an
unavailable partition); ``admit`` then returns ``None``
before the transaction is even built (the frame body hands over drafts),
while ``process_initial`` raises, on top of the same pass.  A granted
admission goes on: the section **body** → **prepare** on the locks still
held (a declared write is already X, so only an undeclared write or an
S→X upgrade is a new request, and can vote NO) → **commit** or abort →
**one release** per partition the section's plan routed.  MS-IA runs that
cycle again for the final section (a denied final lock pass raises and
leaves the final pending, as a failed final commit does);
MS-SR runs prepare, commit and release once, after the final body.  A key
a section locks therefore leaves one hold record.

A granted lock pass returns a
:class:`~repro.storage.partition.SectionRoutes` plan — filled as the
locks are taken, then shared by the body's reads, the 2PC grouping and
the release — so a key is routed once per plan.  A key's partition is
fixed for the store's life (moving a partition to another replica keeps
its :class:`~repro.storage.partition.Partition` object), so MS-SR keeps
its admission's plan, which routed both sections' locks, next to the
buffered writes: its final section reads, commits and releases over it,
as does a failure abort of a pending final.  MS-IA takes its final locks
in a lock pass of their own, with a plan of its own.
The section context keeps executed operations as one flat ``kind, key,
value, …`` row list; an attached :class:`History` folds each committed
section's rows into its running MS-SR / MS-IA check, and keeps them (and
renders :class:`Operation` objects on read) only when
:attr:`History.keep_rows` is on.
The controller keeps its 2PC rounds the same way — one flat ``holder,
participants, …`` list — and renders :class:`DistributedCommitRecord`
objects when :attr:`~DistributedMSIAController.commit_records` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.storage.partition import (
    PartitionedStore,
    SectionRoutes,
    TwoPhaseCommitCoordinator,
    release_routed,
    take_locks,
)
from repro.transactions.exceptions import SectionOrderError, TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionContext, SectionKind
from repro.transactions.ms_sr import AdmittingController, ControllerStats
from repro.transactions.ops import OperationKind


class _BufferedSectionContext(SectionContext):
    """Section context over a partitioned store with buffered writes.

    Reads see the transaction's own pending writes first (read-your-own-
    writes), then the latest committed value in the owning partition.
    Writes are buffered and applied atomically by 2PC at commit time.
    """

    __slots__ = ("_routes", "pending_writes")

    def __init__(
        self,
        transaction_id: str,
        section: SectionKind,
        routes: SectionRoutes,
        labels: Any = None,
        initial_labels: Any = None,
        handoff: dict[str, Any] | None = None,
    ) -> None:
        # No single store: reads route per key through the section's plan.
        super().__init__(transaction_id, section, None, labels, initial_labels, handoff)
        self._routes = routes
        #: Buffered writes, in write order; the controller hands them to 2PC.
        self.pending_writes: dict[str, Any] = {}

    def read(self, key: str, default: Any = None) -> Any:
        if key in self.pending_writes:
            value = self.pending_writes[key]
        else:
            value = self._routes[key].store.read(key, default)
        self.operation_rows += (OperationKind.READ, key, value)
        return value

    def write(self, key: str, value: Any) -> None:
        self.pending_writes[key] = value
        self.operation_rows += (OperationKind.WRITE, key, value)


@dataclass(slots=True)
class DistributedCommitRecord:
    """The 2PC rounds a transaction performed, as read (each round's
    participants are the coordinator's interned set)."""

    transaction_id: str
    rounds: list[frozenset[int]] = field(default_factory=list)

    @property
    def partitions_touched(self) -> frozenset[int]:
        touched: set[int] = set()
        for participants in self.rounds:
            touched |= participants
        return frozenset(touched)


class DistributedMSIAController(AdmittingController):
    """MS-IA over a partitioned store: 2PC at the end of each section."""

    name = "distributed-MS-IA"
    denial = "remote lock denied or partition unavailable (edge failed)"

    def __init__(self, store: PartitionedStore, history: History | None = None) -> None:
        self._store = store
        self._coordinator = TwoPhaseCommitCoordinator(store)
        #: holder -> (transaction, initial labels) awaiting the final section.
        self._pending: dict[str, tuple[MultiStageTransaction, Any]] = {}
        self._history = history
        self.stats = ControllerStats()
        #: Every atomic-commitment round, flat and in round order:
        #: ``holder, participants, …``, each ``participants`` the
        #: coordinator's interned set.
        self._round_rows: list = []
        #: Observer of every atomic-commitment round, called with
        #: ``(transaction_id, participants)``.  The transaction-policy
        #: layer hooks in here to count and schedule coordinator round
        #: trips without the controller knowing which policy runs it.
        self.commit_listener: Callable[[str, frozenset[int]], None] | None = None

    @property
    def store(self) -> PartitionedStore:
        return self._store

    @property
    def history(self) -> History | None:
        return self._history

    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Admission takes the initial section's locks; the section then
        commits through 2PC and releases them."""
        holder = draft.transaction_id
        routes = take_locks(self._store, holder, draft.initial_lock_requests(), now)
        if routes is None:
            self.stats.aborts += 1
            return None

        transaction = draft.materialise()
        context = _BufferedSectionContext(holder, SectionKind.INITIAL, routes, labels)
        result = transaction.initial.body(context)

        committed = self._atomic_commit(holder, context.pending_writes, routes, now)
        if not committed:
            transaction.mark_aborted()
            self.stats.aborts += 1
            raise TransactionAborted(holder, "initial-section atomic commit failed")

        transaction.mark_initial_committed(result, context.handoff, now)
        self.stats.initial_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.INITIAL, now, context.operation_rows)
        self._pending[holder] = (transaction, labels)
        return transaction

    def process_final(
        self, transaction: MultiStageTransaction, labels: Any = None, now: float = 0.0
    ) -> Any:
        holder = transaction.transaction_id
        if holder not in self._pending:
            raise SectionOrderError(f"transaction {holder} has no pending final section")
        _, initial_labels = self._pending.pop(holder)

        routes = take_locks(self._store, holder, transaction.final.rwset.lock_requests(), now)
        if routes is None:
            # Denied before the body ran: the final stays pending for a retry.
            self._pending[holder] = (transaction, initial_labels)
            raise TransactionAborted(holder, "final-section " + self.denial)
        context = _BufferedSectionContext(
            holder, SectionKind.FINAL, routes, labels, initial_labels, transaction.handoff
        )
        result = transaction.final.body(context)

        committed = self._atomic_commit(holder, context.pending_writes, routes, now)
        if not committed:
            # The final section must commit; surface the contention so the
            # caller can retry after the conflicting holder finishes.
            self._pending[holder] = (transaction, initial_labels)
            raise TransactionAborted(holder, "final-section atomic commit failed; retry later")

        transaction.mark_committed(result, context.apologies, now)
        self.stats.final_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.FINAL, now, context.operation_rows)
        return result

    @property
    def commit_records(self) -> dict[str, DistributedCommitRecord]:
        """Each transaction's rounds, in first-round order, rendered."""
        records: dict[str, DistributedCommitRecord] = {}
        rows = iter(self._round_rows)
        for holder, participants in zip(rows, rows):
            record = records.get(holder)
            if record is None:
                record = records[holder] = DistributedCommitRecord(holder)
            record.rounds.append(participants)
        return records

    def partitions_touched(self) -> dict[str, frozenset[int]]:
        """Each transaction's partitions over all its rounds, in first-round
        order, read from the rows: a union of two sets is interned, so the
        walk keeps no object per transaction."""
        touched: dict[str, frozenset[int]] = {}
        unions: dict[frozenset[int], frozenset[int]] = {}
        rows = iter(self._round_rows)
        for holder, participants in zip(rows, rows):
            seen = touched.get(holder)
            if seen is None:
                touched[holder] = participants
            elif not participants <= seen:
                union = seen | participants
                touched[holder] = unions.setdefault(union, union)
        return touched

    @property
    def pending_finals(self) -> tuple[str, ...]:
        """Ids of transactions whose final section has not run yet."""
        return tuple(self._pending)

    def abort_pending(self, now: float = 0.0) -> tuple[str, ...]:
        """Abort every prepared-but-uncommitted final (replica crash path).

        Called through the transaction-policy seam when the hosting edge
        fails: pending finals are failure-aborted (each records an
        apology), any locks they still hold are released, and the
        aborts land in the controller stats.  Returns the aborted ids.
        """
        aborted: list[str] = []
        for holder, (transaction, _labels) in list(self._pending.items()):
            del self._pending[holder]
            self._release_pending_state(holder, transaction, now)
            transaction.mark_aborted_by_failure()
            self.stats.aborts += 1
            aborted.append(holder)
        return tuple(aborted)

    def _release_pending_state(
        self, holder: str, transaction: MultiStageTransaction, now: float
    ) -> None:
        """Drop whatever a pending final still holds (MS-IA: nothing —
        locks were released when the initial section committed)."""

    # -- internals ---------------------------------------------------------
    def _atomic_commit(
        self, holder: str, writes: dict[str, Any], routes: SectionRoutes, now: float
    ) -> bool:
        """Prepare on the section's held locks, commit or abort, and release
        them once per partition ``routes`` routed."""
        if not writes:
            release_routed(holder, routes, now)
            self._record_round(holder, frozenset())
            return True
        result = self._coordinator.commit(holder, writes, now=now, routes=routes)
        self._record_round(holder, result.participants)
        return result.committed

    def _record_round(self, holder: str, participants: frozenset[int]) -> None:
        self._round_rows += (holder, participants)
        if self.commit_listener is not None:
            self.commit_listener(holder, participants)


class DistributedTwoStage2PL(DistributedMSIAController):
    """MS-SR over a partitioned store: locks for both sections are routed to
    their partitions before the initial commit and a single 2PC round runs at
    the end of the final section."""

    name = "distributed-MS-SR"

    def __init__(self, store: PartitionedStore, history: History | None = None) -> None:
        super().__init__(store, history=history)
        #: holder -> (the admission's plan, the buffered writes) until the
        #: final section commits them.
        self._buffered: dict[str, tuple[SectionRoutes, dict[str, Any]]] = {}

    def _release_pending_state(
        self, holder: str, transaction: MultiStageTransaction, now: float
    ) -> None:
        """A failure-aborted MS-SR final releases the locks held since the
        initial section, over its admission's plan, and discards its
        buffered (never-applied) writes."""
        routes, _ = self._buffered.pop(holder)
        release_routed(holder, routes, now)

    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Admission takes both sections' locks (Algorithm 1 before the
        initial commit); the initial section's writes stay buffered until
        the final section's single 2PC round."""
        holder = draft.transaction_id
        routes = take_locks(self._store, holder, draft.lock_requests(), now)
        if routes is None:
            self.stats.aborts += 1
            return None

        transaction = draft.materialise()
        context = _BufferedSectionContext(holder, SectionKind.INITIAL, routes, labels)
        result = transaction.initial.body(context)

        transaction.mark_initial_committed(result, context.handoff, now)
        self.stats.initial_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.INITIAL, now, context.operation_rows)
        self._pending[holder] = (transaction, labels)
        self._buffered[holder] = (routes, context.pending_writes)
        return transaction

    def process_final(
        self, transaction: MultiStageTransaction, labels: Any = None, now: float = 0.0
    ) -> Any:
        holder = transaction.transaction_id
        if holder not in self._pending:
            raise SectionOrderError(f"transaction {holder} has no pending final section")
        _, initial_labels = self._pending.pop(holder)

        routes, buffered = self._buffered.pop(holder)
        context = _BufferedSectionContext(
            holder, SectionKind.FINAL, routes, labels, initial_labels, transaction.handoff
        )
        # Reads must observe the initial section's buffered writes; the
        # final section's writes land on top of them, in write order.
        context.pending_writes = buffered
        result = transaction.final.body(context)

        # The locks for every touched key are already held, so prepare can
        # only be denied when a participating partition failed between the
        # sections — the one way the single 2PC round at the end of the
        # final section does not succeed (short of a body writing a key it
        # never declared while another holder has it).
        committed = self._atomic_commit(holder, context.pending_writes, routes, now)
        if not committed:
            self.stats.aborts += 1
            raise TransactionAborted(holder, "final atomic commit failed: participant unavailable")

        transaction.mark_committed(result, context.apologies, now)
        self.stats.final_commits += 1
        if self._history is not None:
            self._history.record_rows(holder, SectionKind.FINAL, now, context.operation_rows)
        return result
