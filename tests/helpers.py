"""Shared object factories for the Croesus test suite.

Kept in a uniquely named module (not ``conftest``) so test files can
import the factories without clashing with ``benchmarks/conftest.py``
when both directories are collected in one pytest invocation.
"""

from __future__ import annotations

from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.video.frames import Frame
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
