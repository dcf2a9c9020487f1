"""Shared object factories for the Croesus test suite.

Kept in a uniquely named module (not ``conftest``) so test files can
import the factories without clashing with ``benchmarks/conftest.py``
when both directories are collected in one pytest invocation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.analysis.sweeps import ThresholdSweep
from repro.core.config import CroesusConfig
from repro.core.optimizer import ThresholdScore, select_best, threshold_grid
from repro.core.results import FrameTrace
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport, aggregate_reports
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager
from repro.video.frames import Frame
from repro.video.library import make_video
from repro.video.scene import SceneObject


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
    """Every ``KeyValueStore`` and ``LockManager`` built inside the block
    keeps its version / tenure rows (``keep_versions`` / ``keep_tenures``),
    so ``history``, ``read_version`` and ``hold_records`` can be read."""
    saved = KeyValueStore.keep_versions, LockManager.keep_tenures
    KeyValueStore.keep_versions = LockManager.keep_tenures = True
    try:
        yield
    finally:
        KeyValueStore.keep_versions, LockManager.keep_tenures = saved


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
