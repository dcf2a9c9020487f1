"""The multi-stage transaction model and programming interface.

Section 2.1 ("Programming Interface") describes transactions written as
two blocks — ``CC.initial{ }`` and ``CC.final{ }`` — both receiving the
detected labels as input.  Here a transaction is a pair of
:class:`SectionSpec` objects; each section declares its read/write set
(so a controller can run ``get_rwsets`` before executing) and provides a
body that runs against a :class:`SectionContext`.

The context exposes ``read``/``write`` (routed through the store and the
undo log), the section's input labels, the values the initial section
passed forward, and apology recording for MS-IA final sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockRequests
from repro.storage.wal import UndoLog
from repro.transactions.exceptions import SectionOrderError
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet, lock_keys

_READ, _WRITE = OperationKind.READ, OperationKind.WRITE


class SectionKind(Enum):
    """Which of the two sections of a transaction."""

    INITIAL = "initial"
    FINAL = "final"


class TransactionStatus(Enum):
    """Lifecycle of a multi-stage transaction.

    ``PENDING → INITIAL_COMMITTED → COMMITTED`` on the success path;
    ``ABORTED`` only ever happens before the initial commit (the paper's
    guarantee: once the initial section commits, the final section must
    commit too).
    """

    PENDING = "pending"
    INITIAL_COMMITTED = "initial-committed"
    COMMITTED = "committed"
    ABORTED = "aborted"


class SectionContext:
    """Execution context handed to a section body.

    Parameters
    ----------
    transaction_id:
        Id of the enclosing transaction (used as the writer tag).
    section:
        Which section is running.
    store:
        The edge node's key-value store.
    labels:
        The section's input labels (edge labels for the initial section,
        corrected labels for the final section).
    initial_labels:
        For final sections, the labels the initial section ran with, so
        the apology logic can tell whether the trigger was erroneous.
    handoff:
        Key/value state the initial section recorded for the final
        section ("the initial section communicates to the final section
        via writing its input and state", §3.2).  The dict is the
        context's own, not a copy: a final section receives the
        transaction's handoff read-only, and an initial section's
        :meth:`put_handoff` writes into the dict it was given (a new one
        when none was).
    undo_log:
        Undo log used to capture before-images of writes (MS-IA).
    """

    __slots__ = (
        "transaction_id",
        "section",
        "labels",
        "initial_labels",
        "_store",
        "_undo_log",
        "_handoff",
        "operation_rows",
        "_apologies",
        "_retracted",
    )

    def __init__(
        self,
        transaction_id: str,
        section: SectionKind,
        store: KeyValueStore,
        labels: Any = None,
        initial_labels: Any = None,
        handoff: dict[str, Any] | None = None,
        undo_log: UndoLog | None = None,
    ) -> None:
        self.transaction_id = transaction_id
        self.section = section
        self.labels = labels
        self.initial_labels = initial_labels
        self._store = store
        self._undo_log = undo_log
        self._handoff = {} if handoff is None else handoff
        #: Executed operations as one flat row list — ``kind, key, value,
        #: kind, key, value, …``, three slots per operation and no tuple —
        #: what the controllers hand to :attr:`History.record_rows`;
        #: ``operations`` and ``executed_rwset`` read it by slicing.
        self.operation_rows: list = []
        self._apologies: tuple[str, ...] = ()
        self._retracted = False

    # -- data access -----------------------------------------------------
    def read(self, key: str, default: Any = None) -> Any:
        """Read ``key`` from the store, recording the operation."""
        value = self._store.read(key, default)
        self.operation_rows += (_READ, key, value)
        return value

    def write(self, key: str, value: Any) -> None:
        """Write ``key`` to the store, recording the operation and its undo image."""
        if self._undo_log is not None:
            self._undo_log.log_write(self.transaction_id, key, value)
        self._store.write(key, value, self.transaction_id)
        self.operation_rows += (_WRITE, key, value)

    def delete(self, key: str) -> None:
        """Delete ``key`` (tombstone write)."""
        self.write(key, None)

    # -- initial → final handoff -----------------------------------------
    def put_handoff(self, key: str, value: Any) -> None:
        """Record state for the final section (initial sections only)."""
        if self.section is not SectionKind.INITIAL:
            raise SectionOrderError("only the initial section can record handoff state")
        self._handoff[key] = value

    def get_handoff(self, key: str, default: Any = None) -> Any:
        """Read state the initial section recorded."""
        return self._handoff.get(key, default)

    @property
    def handoff(self) -> dict[str, Any]:
        """Copy of the handoff dictionary."""
        return dict(self._handoff)

    # -- apologies (MS-IA) -----------------------------------------------
    def apologize(self, message: str) -> None:
        """Record an apology to be delivered to the client (final sections)."""
        self._apologies += (message,)

    def retract_initial_effects(self) -> list[str]:
        """Undo every write the initial section performed.

        Returns the list of keys that were restored.  Requires an undo
        log (MS-IA); calling it twice is a no-op.
        """
        if self._undo_log is None or self._retracted:
            return []
        records = self._undo_log.undo(self.transaction_id)
        self._retracted = True
        return [record.key for record in records]

    # -- introspection ----------------------------------------------------
    @property
    def operations(self) -> tuple[Operation, ...]:
        """Operations executed so far in this section."""
        rows = self.operation_rows
        return tuple(map(Operation, rows[0::3], rows[1::3], rows[2::3]))

    @property
    def apologies(self) -> tuple[str, ...]:
        return self._apologies

    @property
    def retracted(self) -> bool:
        return self._retracted

    def executed_rwset(self) -> ReadWriteSet:
        """Read/write set actually touched by the section body."""
        rows = self.operation_rows
        operations = tuple(zip(rows[0::3], rows[1::3]))
        return ReadWriteSet(
            reads=frozenset(key for kind, key in operations if kind is OperationKind.READ),
            writes=frozenset(key for kind, key in operations if kind is OperationKind.WRITE),
        )


#: A section body takes the context and returns an application-level result.
SectionBody = Callable[[SectionContext], Any]


@dataclass(frozen=True)
class SectionSpec:
    """Declaration of one section: its body plus its read/write set.

    Declared read/write sets are what ``get_rwsets`` returns in
    Algorithms 1 and 2.  They must cover (be a superset of) what the body
    actually touches; the controllers verify this in strict mode.
    """

    body: SectionBody
    rwset: ReadWriteSet = field(default_factory=ReadWriteSet)

    @classmethod
    def noop(cls) -> "SectionSpec":
        """A section that does nothing (e.g. 'terminate' final sections)."""
        return cls(body=lambda ctx: None, rwset=ReadWriteSet())


class RowSection(ReadWriteSet):
    """A section that is data: two spans of its transaction's key row.

    The workload generators build transactions whose bodies differ only
    in their keys, so their sections carry no closure: a workload
    subclasses this once per kind of section, builds ``Kind(read_span,
    write_span, row)`` and writes :meth:`body` against ``self.row``
    (``self._read_keys`` / ``self._write_keys`` are the two spans).  The
    section *is* its declaration (``rwset`` returns it), so controllers
    use it exactly as a :class:`SectionSpec`.  Its lock requests are the
    ``exclusive`` / ``shared`` tuples its draft built, or built on first use
    when the draft built none.
    """

    __slots__ = ()

    @property
    def rwset(self) -> ReadWriteSet:
        return self

    def body(self, context: SectionContext) -> Any:
        raise NotImplementedError


@dataclass
class MultiStageTransaction:
    """A transaction with an initial and a final section.

    Attributes
    ----------
    transaction_id:
        Unique identifier.
    initial:
        The initial section, triggered by edge labels.
    final:
        The final section, triggered by (corrected) cloud labels.
    trigger:
        Free-form description of what triggered the transaction (label
        class, auxiliary input, ...), used for reporting.
    """

    transaction_id: str
    initial: SectionSpec | RowSection
    final: SectionSpec | RowSection
    trigger: str = ""
    status: TransactionStatus = TransactionStatus.PENDING
    initial_result: Any = None
    final_result: Any = None
    apologies: tuple[str, ...] = ()
    #: What the initial section passed forward; ``None`` until it commits.
    handoff: dict[str, Any] | None = None
    initial_commit_time: float | None = None
    final_commit_time: float | None = None
    #: Union of both declarations: handed over by a builder that already
    #: holds it, merged by :meth:`combined_rwset` on first use otherwise.
    combined: ReadWriteSet | None = field(default=None, repr=False, compare=False)

    # -- lifecycle helpers used by the controllers ------------------------
    def mark_initial_committed(self, result: Any, handoff: dict[str, Any], now: float) -> None:
        """Keeps ``handoff`` itself as the transaction's handoff (a controller
        passes its initial context's :attr:`SectionContext.handoff` copy)."""
        if self.status is not TransactionStatus.PENDING:
            raise SectionOrderError(
                f"cannot initial-commit transaction in state {self.status.value}"
            )
        self.status = TransactionStatus.INITIAL_COMMITTED
        self.initial_result = result
        self.handoff = handoff
        self.initial_commit_time = now

    def mark_committed(self, result: Any, apologies: tuple[str, ...], now: float) -> None:
        if self.status is not TransactionStatus.INITIAL_COMMITTED:
            raise SectionOrderError(
                f"cannot final-commit transaction in state {self.status.value}"
            )
        self.status = TransactionStatus.COMMITTED
        self.final_result = result
        self.apologies = apologies
        self.final_commit_time = now

    def mark_aborted(self) -> None:
        if self.status in (TransactionStatus.INITIAL_COMMITTED, TransactionStatus.COMMITTED):
            raise SectionOrderError(
                "a transaction cannot abort after its initial section committed"
            )
        self.status = TransactionStatus.ABORTED

    def mark_aborted_by_failure(self, reason: str = "edge failed") -> None:
        """Abort an in-flight transaction whose replica crashed.

        Unlike :meth:`mark_aborted`, this transition is legal from
        ``INITIAL_COMMITTED``: a crash can strand a transaction between
        its sections, and resolving it (per the active transaction
        policy) aborts the prepared-but-uncommitted final.  The client
        already saw the initial result, so an apology is recorded.
        """
        if self.status is TransactionStatus.COMMITTED:
            raise SectionOrderError("a committed transaction cannot be failure-aborted")
        if self.status is TransactionStatus.INITIAL_COMMITTED:
            self.apologies = self.apologies + (
                f"{self.transaction_id} final section aborted: {reason}",
            )
        self.status = TransactionStatus.ABORTED

    # -- as its own draft ---------------------------------------------------
    def initial_lock_requests(self) -> LockRequests:
        """The initial section's lock requests (what most admissions take)."""
        return self.initial.rwset.lock_requests()

    def lock_requests(self) -> LockRequests:
        """Both sections' lock requests (what an MS-SR admission takes)."""
        return self.combined_rwset().lock_requests()

    @property
    def key_count(self) -> int:
        """Distinct keys both sections declare (what an attempt is charged for)."""
        return self.combined_rwset().key_count

    def materialise(self) -> "MultiStageTransaction":
        """A built transaction is its own draft: admitting it builds nothing."""
        return self

    # -- convenience -------------------------------------------------------
    @property
    def is_committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self.status is TransactionStatus.ABORTED

    def combined_rwset(self) -> ReadWriteSet:
        """Union of the declared initial and final read/write sets.

        Both declarations are immutable, so the union is merged once.
        """
        combined = self.combined
        if combined is None:
            combined = self.combined = self.initial.rwset.merged(self.final.rwset)
        return combined

    def conflicts_with(self, other: "MultiStageTransaction") -> bool:
        """Paper §4.1: two transactions conflict when at least one
        conflicting operation exists in either of their sections."""
        return self.combined_rwset().conflicts_with(other.combined_rwset())


class TransactionDraft(ReadWriteSet):
    """A workload transaction before admission: its id, its key row and
    the workload that builds it; the draft *is* both sections' union
    declaration over ``row``.

    An admission reads ``transaction_id``, :meth:`lock_requests` /
    :meth:`initial_lock_requests` and ``key_count``, as it does on a built
    :class:`MultiStageTransaction` (its own draft).  Only a granted draft is
    :meth:`materialise`-d into its two :class:`RowSection` objects, keeping
    the draft as ``combined`` and handing each section the lock requests
    the draft holds for it.  A workload that formats the union's requests
    (``exclusive`` / ``shared``) or a section's with its keys passes them
    in, by position; those it does not are ``None`` until asked for.
    ``key_count`` (the distinct keys over ``row``, which the workload
    counts as it drafts) is a slot, not the base's lazy property: the
    edge charges every attempt by it, granted or denied.
    """

    __slots__ = (
        "transaction_id",
        "builder",
        "key_count",
        "initial_exclusive",
        "initial_shared",
        "final_exclusive",
        "final_shared",
    )

    def __init__(
        self,
        transaction_id: str,
        row: tuple,
        reads: slice,
        writes: slice,
        builder: Any,
        key_count: int,
        exclusive: tuple[str, ...] | None = None,
        shared: tuple[str, ...] | None = None,
        initial_exclusive: tuple[str, ...] | None = None,
        initial_shared: tuple[str, ...] | None = None,
        final_exclusive: tuple[str, ...] | None = None,
        final_shared: tuple[str, ...] | None = None,
    ) -> None:
        # ReadWriteSet.__init__'s slots, set here: one call per draft.
        self.row = row
        self._read_keys = reads
        self._write_keys = writes
        self._reads = self._writes = self._keys = self._key_count = None
        self._exclusive = exclusive
        self._shared = shared
        self.transaction_id = transaction_id
        self.builder = builder
        self.initial_exclusive = initial_exclusive
        self.initial_shared = initial_shared
        self.final_exclusive = final_exclusive
        self.final_shared = final_shared
        self.key_count = key_count

    def initial_lock_requests(self) -> LockRequests:
        """The initial section's lock requests: the ones the workload passed
        in, or built here on first use over ``builder.initial_spans`` (the
        spans the initial section reads and writes)."""
        exclusive = self.initial_exclusive
        if exclusive is None:
            reads, writes = self.builder.initial_spans
            row = self.row
            exclusive, self.initial_shared = lock_keys(
                None if reads is writes else row[reads], row[writes]
            )
            self.initial_exclusive = exclusive
        return exclusive, self.initial_shared

    def materialise(self) -> MultiStageTransaction:
        """The transaction this draft describes, built by its workload."""
        return self.builder.materialise(self)
