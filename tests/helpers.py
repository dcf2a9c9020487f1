"""Shared object factories for the Croesus test suite.

Kept in a uniquely named module (not ``conftest``) so test files can
import the factories without clashing with ``benchmarks/conftest.py``
when both directories are collected in one pytest invocation.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.analysis.sweeps import ThresholdSweep
from repro.cluster.results import ClusterRunResult
from repro.core.config import CroesusConfig
from repro.core.optimizer import ThresholdScore, select_best, threshold_grid
from repro.core.results import FrameTrace, RunResult
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport, aggregate_reports
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager, LockMode
from repro.storage.partition import PartitionedStore
from repro.storage.wal import Checkpoint
from repro.transactions.checker import CheckResult
from repro.transactions.history import History, SectionRecord
from repro.transactions.model import SectionKind
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet
from repro.video.frames import Frame
from repro.video.library import make_video
from repro.video.scene import SceneObject


def cluster_summary(result: ClusterRunResult) -> dict[str, float]:
    """Headline metrics of one cluster run, for determinism comparisons.

    ``num_cross_partition_txns`` is the absolute count behind
    ``cross_partition_fraction`` and the 2PC abort rate, so two runs that
    agree on the rates also agree on their denominator.
    """
    return {
        "edges": float(len(result.edges)),
        "streams": float(len(result.per_stream)),
        "frames": float(result.num_frames),
        "makespan_s": result.makespan,
        "throughput_fps": result.throughput_fps,
        "mean_queue_delay_ms": result.mean_queue_delay * 1000.0,
        "mean_cloud_queue_delay_ms": result.mean_cloud_queue_delay * 1000.0,
        "max_utilization": max((edge.utilization for edge in result.edges), default=0.0),
        "cross_partition_fraction": result.cross_partition_fraction,
        "num_cross_partition_txns": float(result.cross_edge_transactions),
        "two_phase_abort_rate": result.stats.abort_rate,
        "f_score": result.f_score,
        "migrations": float(len(result.migrations)),
    }


def run_summary(result: RunResult) -> dict[str, float]:
    """Headline metrics of one single-edge run, for determinism comparisons."""
    return {
        "frames": float(result.num_frames),
        "bandwidth_utilization": result.bandwidth_utilization,
        "f_score": result.f_score,
        "initial_latency_ms": result.average_initial_latency * 1000.0,
        "final_latency_ms": result.average_final_latency * 1000.0,
        "transactions": float(result.total_transactions),
        "corrections": float(result.total_corrections),
    }


def make_detection(
    name: str = "person",
    confidence: float = 0.8,
    x: float = 100.0,
    y: float = 100.0,
    size: float = 50.0,
    object_id: int | None = None,
) -> Detection:
    """Build a detection with a square box at (x, y)."""
    return Detection(
        name=name,
        confidence=confidence,
        box=BoundingBox(x, y, x + size, y + size),
        object_id=object_id,
    )


def make_label_set(frame_id: int, *detections: Detection, model: str = "test") -> LabelSet:
    """Build a label set from detections."""
    return LabelSet(frame_id=frame_id, detections=tuple(detections), model_name=model)


def make_scene_object(
    object_id: int = 0,
    name: str = "person",
    x: float = 100.0,
    y: float = 100.0,
    size: float = 80.0,
    visibility: float = 1.0,
    difficulty: float = 1.0,
) -> SceneObject:
    """Build a ground-truth object with a square box."""
    return SceneObject(
        object_id=object_id,
        name=name,
        box=BoundingBox(x, y, x + size, y + size),
        visibility=visibility,
        difficulty=difficulty,
        confusable_name="other",
    )


def make_frame(frame_id: int = 0, *objects: SceneObject, query: str = "person") -> Frame:
    """Build a frame containing the given ground-truth objects."""
    return Frame(
        frame_id=frame_id,
        width=1280.0,
        height=720.0,
        objects=tuple(objects),
        query_class=query,
    )


def count_constructions(monkeypatch, *classes) -> dict[str, int]:
    """Count ``__init__`` calls per class name from now on (a live dict)."""
    built = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        original = cls.__init__

        def counting_init(self, *args, _original=original, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


@contextmanager
def keeping_rows() -> Iterator[None]:
    """Every ``KeyValueStore``, ``LockManager`` and ``History`` built inside
    the block keeps its version / tenure / section rows (``keep_versions``
    / ``keep_tenures`` / ``keep_rows``), so ``history``, ``read_version``,
    ``hold_records`` and a history's sections can be read."""
    saved = KeyValueStore.keep_versions, LockManager.keep_tenures, History.keep_rows
    KeyValueStore.keep_versions = LockManager.keep_tenures = History.keep_rows = True
    try:
        yield
    finally:
        KeyValueStore.keep_versions, LockManager.keep_tenures, History.keep_rows = saved


def lock_mode(operation: Operation) -> LockMode:
    """Lock mode ``operation`` needs: exclusive for a write, shared for a read."""
    return LockMode.EXCLUSIVE if operation.kind is OperationKind.WRITE else LockMode.SHARED


def rwset_from_operations(operations: Iterable[Operation]) -> ReadWriteSet:
    """The read/write set of executed ``operations``."""
    reads: set[str] = set()
    writes: set[str] = set()
    for operation in operations:
        if operation.kind is OperationKind.READ:
            reads.add(operation.key)
        else:
            writes.add(operation.key)
    return ReadWriteSet(reads=frozenset(reads), writes=frozenset(writes))


def locked_keys(locks: LockManager) -> frozenset[str]:
    """Every key ``locks`` has granted to anyone."""
    return frozenset(locks._table)


def lock_state(locks: LockManager) -> tuple:
    """The lock table and every holder's key set, each in iteration order
    (``release_all`` ends tenures in key-set order), and the tenure totals."""
    return (
        [(key, entry[0], list(entry[1].items())) for key, entry in locks._table.items()],
        {holder: list(keys) for holder, keys in locks._held_by.items()},
        locks._tenures,
        locks._hold_total,
        locks._hold_error,
    )


def store_lock_state(store: PartitionedStore) -> list[tuple]:
    """:func:`lock_state` of every partition of ``store``."""
    return [lock_state(store.partition(pid).locks) for pid in store.partition_ids()]


def checkpoint_all(store: PartitionedStore) -> dict[int, Checkpoint]:
    """Checkpoint every available partition of ``store``; returns the snapshots."""
    checkpoints = {}
    for partition_id in store.partition_ids():
        partition = store.partition(partition_id)
        if partition.available:
            checkpoints[partition_id] = partition.take_checkpoint()
    return checkpoints


class ReferenceLockManager(LockManager):
    """The lock manager's grant and release paths as first written: one
    ``try_acquire`` per request, a denied ``acquire_all`` releasing what it
    granted key by key, and ``release_all`` ending one tenure per call.
    The oracle :class:`LockManager`'s one grant loop is held to."""

    def try_acquire(self, holder, key, mode, now=0.0):
        entry = self._table.get(key)
        if entry is None:
            self._table[key] = [mode, {holder: now}]
        elif holder in entry[1]:
            if mode is LockMode.EXCLUSIVE and entry[0] is LockMode.SHARED:
                if len(entry[1]) > 1:
                    return False
                entry[0] = LockMode.EXCLUSIVE
            return True
        elif entry[0] is LockMode.SHARED and mode is LockMode.SHARED:
            entry[1][holder] = now
        else:
            return False
        self._held_by.setdefault(holder, set()).add(key)
        return True

    def acquire_all(self, holder, exclusive, shared=(), now=0.0):
        pairs = [(key, LockMode.EXCLUSIVE) for key in exclusive]
        pairs += [(key, LockMode.SHARED) for key in shared]
        held = self._held_by.get(holder, frozenset())
        newly_acquired = []
        for key, mode in pairs:
            already_held = key in held
            if self.try_acquire(holder, key, mode, now):
                if not already_held:
                    newly_acquired.append(key)
            else:
                for acquired_key in newly_acquired:
                    self.release(holder, acquired_key, now=now, record=False)
                return False
        return True

    def release(self, holder, key, now=0.0, record=True):
        entry = self._table.get(key)
        if entry is None or holder not in entry[1]:
            return
        acquired_at = entry[1].pop(holder)
        if record:
            self._end_tenure(key, holder, acquired_at, now)
        held = self._held_by[holder]
        held.discard(key)
        if not held:
            del self._held_by[holder]
        if not entry[1]:
            del self._table[key]

    def release_all(self, holder, now=0.0):
        for key in self._held_by.pop(holder, frozenset()):
            holders = self._table[key][1]
            self._end_tenure(key, holder, holders.pop(holder), now)
            if not holders:
                del self._table[key]

    def _end_tenure(self, key, holder, acquired_at, released_at):
        duration = released_at - acquired_at
        total = self._hold_total
        if sys.version_info >= (3, 12) and type(total) is float and type(duration) is float:
            summed = total + duration
            if abs(total) >= abs(duration):
                self._hold_error += (total - summed) + duration
            else:
                self._hold_error += (duration - summed) + total
            self._hold_total = summed
        else:
            self._hold_total = total + duration
        self._tenures += 1
        if self._holds is not None:
            self._holds += (key, holder, acquired_at, released_at)


def rollback_writer(store: KeyValueStore, key: str, writer: str) -> bool:
    """Restore ``key`` to the value it had before ``writer`` last wrote it
    (``None`` when that was the key's first version), as a write by
    ``undo:<writer>``; ``False`` when ``writer`` never wrote ``key``.

    Reads the versions of a store that keeps them (``keep_versions``).
    """
    versions = store.history(key)
    for index in range(len(versions) - 1, -1, -1):
        if versions[index].writer == writer:
            prior = versions[index - 1].value if index else None
            store.write(key, prior, writer=f"undo:{writer}")
            return True
    return False


def best_feasible(sweep: ThresholdSweep, target_f_score: float) -> ThresholdScore | None:
    """The pair the searches pick (:func:`~repro.core.optimizer.select_best`)
    among a sweep's scores meeting the F-score target, or None if none does."""
    best = select_best(sweep.scores, target_f_score)
    return best if best.f_score >= target_f_score else None


def profiled_traces(config: CroesusConfig, video_key: str, num_frames: int) -> list[FrameTrace]:
    """The traces ``ThresholdEvaluator.profile`` scores: one run of the
    video validating every frame."""
    system = CroesusSystem(config.with_thresholds(0.0, 0.999))
    return system.run(make_video(video_key, num_frames=num_frames, seed=config.seed)).traces


class ReferenceEvaluator:
    """The threshold evaluator as first written, kept as the oracle of
    ``ThresholdEvaluator``: every cache-missed pair re-matches every frame
    (``frame_rescores`` grows by ``num_frames`` per scored pair).  Has the
    ``evaluate`` / ``evaluate_grid`` / counters surface the searches use.
    """

    def __init__(self, traces: list[FrameTrace], match_overlap: float = 0.10) -> None:
        if not traces:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        self.traces = list(traces)
        self.num_frames = len(self.traces)
        self.evaluations = 0
        self.frame_rescores = 0
        self._cache: dict[tuple[float, float], ThresholdScore] = {}
        self._profiled = [
            (
                trace.edge_labels,
                FrameOverlaps(
                    trace.edge_labels.detections, trace.cloud_labels.detections, match_overlap
                ),
            )
            for trace in self.traces
        ]

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        lower, upper = key = (round(lower, 6), round(upper, 6))
        if key in self._cache:
            return self._cache[key]

        policy = ThresholdPolicy(lower, upper)
        reports = []
        sent_count = 0
        final_latencies = []
        initial_latencies = []
        self.evaluations += 1

        for trace, (edge, overlaps) in zip(self.traces, self._profiled):
            rows, sent = policy.partition(edge)
            self.frame_rescores += 1
            reports.append(AccuracyReport(*overlaps.client_view(rows, sent)[1]))

            latency = trace.latency
            initial_latencies.append(latency.initial_latency)
            if sent:
                sent_count += 1
                final_latencies.append(latency.final_latency)
            else:
                final_latencies.append(latency.initial_latency + latency.final_txn)

        accuracy = aggregate_reports(reports)
        score = ThresholdScore(
            lower=lower,
            upper=upper,
            bandwidth_utilization=sent_count / len(self.traces),
            f_score=accuracy.f_score,
            average_final_latency=sum(final_latencies) / len(final_latencies),
            average_initial_latency=sum(initial_latencies) / len(initial_latencies),
        )
        self._cache[key] = score
        return score

    def evaluate_grid(self, step: float = 0.1) -> list[ThresholdScore]:
        values = threshold_grid(step)
        return [
            self.evaluate(lower, upper)
            for lower in values
            for upper in values
            if lower <= upper
        ]


# -- the pairwise MS-SR / MS-IA definition ------------------------------------
# What ``History`` and ``transactions.checker`` held before the checker became
# a fold: the conditions of §4.3 / §4.4 tested pair by pair over a history that
# keeps its rows.  The property tests hold the fold to it.
def operations_conflict(left: Iterable[Operation], right: Iterable[Operation]) -> bool:
    """True when any operation in ``left`` conflicts with one in ``right``."""
    right_list = list(right)
    return any(a.conflicts_with(b) for a in left for b in right_list)


def sections_conflict(left: SectionRecord, right: SectionRecord) -> bool:
    """True when the two sections contain conflicting operations."""
    return operations_conflict(left.operations, right.operations)


def record_section(
    history: History,
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
    history.record_rows(transaction_id, section, commit_time, rows)


def sections_of(history: History, transaction_id: str) -> list[SectionRecord]:
    """Committed sections of one transaction, in append order."""
    return [record for record in history if record.transaction_id == transaction_id]


def section(history: History, transaction_id: str, kind: SectionKind) -> SectionRecord | None:
    """A specific section of a transaction (the first appended), or None."""
    for record in history:
        if record.transaction_id == transaction_id and record.section is kind:
            return record
    return None


def ordered_before(first: SectionRecord, second: SectionRecord) -> bool:
    """The ``<h`` relation: ``first`` committed before ``second``, ties on
    commit time broken by append order."""
    if first.commit_time != second.commit_time:
        return first.commit_time < second.commit_time
    return first.sequence < second.sequence


def conflicting_pairs(history: History) -> list[tuple[str, str]]:
    """Pairs of distinct transactions that conflict (in either section)."""
    ids = history.transaction_ids()
    pairs: list[tuple[str, str]] = []
    for i, left in enumerate(ids):
        left_sections = sections_of(history, left)
        for right in ids[i + 1 :]:
            right_sections = sections_of(history, right)
            if any(sections_conflict(a, b) for a in left_sections for b in right_sections):
                pairs.append((left, right))
    return pairs


def reference_check_ms_ia(history: History) -> CheckResult:
    """The MS-IA condition, per transaction over the whole history."""
    violations = list(_per_transaction_violations(history))
    return CheckResult(ok=not violations, violations=tuple(violations))


def reference_check_ms_sr(history: History) -> CheckResult:
    """All three MS-SR conditions, pair by pair over the whole history."""
    violations = list(_per_transaction_violations(history))
    for left_id, right_id in conflicting_pairs(history):
        violations.extend(_pair_violations(history, left_id, right_id))
        violations.extend(_pair_violations(history, right_id, left_id))
    return CheckResult(ok=not violations, violations=tuple(violations))


def _per_transaction_violations(history: History):
    """Condition (1): every final section commits after its initial section."""
    for transaction_id in history.transaction_ids():
        initial = section(history, transaction_id, SectionKind.INITIAL)
        final = section(history, transaction_id, SectionKind.FINAL)
        if final is not None and initial is None:
            yield f"{transaction_id}: final section committed without an initial section"
        elif final is not None and initial is not None:
            if not ordered_before(initial, final):
                yield f"{transaction_id}: final section committed before its initial section"


def _pair_violations(history: History, first_id: str, second_id: str):
    """Conditions (2) and (3) for the ordered pair where ``first`` initial-commits first."""
    first_initial = section(history, first_id, SectionKind.INITIAL)
    second_initial = section(history, second_id, SectionKind.INITIAL)
    if first_initial is None or second_initial is None:
        return
    if not ordered_before(first_initial, second_initial):
        return  # this direction of the pair is handled by the symmetric call

    first_final = section(history, first_id, SectionKind.FINAL)
    second_final = section(history, second_id, SectionKind.FINAL)

    # Condition (2): s^f_k <h s^f_j.
    if first_final is not None and second_final is not None:
        if not ordered_before(first_final, second_final):
            yield (
                f"MS-SR(2) violated: {first_final.label} must commit before "
                f"{second_final.label}"
            )

    # Condition (3): if s^f_k conflicts with s^i_j then s^f_k <h s^i_j.
    if first_final is not None and sections_conflict(first_final, second_initial):
        if not ordered_before(first_final, second_initial):
            yield (
                f"MS-SR(3) violated: {first_final.label} conflicts with "
                f"{second_initial.label} but commits after it"
            )
