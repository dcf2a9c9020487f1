"""The per-detection values and the detector that builds them.

``BoundingBox``, ``Detection``, ``LabelSet``, ``SceneObject`` (one or more
per detection or per scene object per frame), ``FrameTrace`` /
``LatencyBreakdown`` (one per recorded frame), ``ThresholdScore`` (one per
grid pair per retune) and ``LogRecord`` (one per redo-log record read or
shipped) are slotted dataclasses that are *not* frozen — a frozen
``__init__`` pays one ``object.__setattr__`` per field — and stay values by
convention.  What
must hold for that to be invisible:

* the value contract: ``==`` / ``hash`` / ``repr`` / ``replace`` / keyword
  construction / ``__post_init__`` errors are what the frozen classes gave;
* ``SimulatedDetector.detect`` — one inlined object loop that draws an
  object's four normals with one ``standard_normal(4)`` — produces, frame
  after frame, the labels, the latency and the generator state of the
  scalar detector it replaced (``ReferenceDetector`` below: commit
  c6ba702's ``detect`` / ``_jitter_box`` / ``_draw_confidence``);
* no seeded run builds a box the NaN-proof ``__post_init__`` check refuses.

The NumPy fact the one-call draw rests on is pinned by name in
``tests/test_workloads.py``.  CI runs this file under two
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer import ThresholdScore
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.metrics import AccuracyReport
from repro.detection.models import SimulatedDetector
from repro.detection.profiles import (
    CLOUD_YOLOV3_416,
    EDGE_TINY_YOLOV3,
    STRESS_CLOUD,
    STRESS_EDGE,
    ModelProfile,
)
from repro.experiments import get_scenario, run
from repro.storage.wal import LogRecord
from repro.video.frames import Frame
from repro.video.scene import SceneObject


# -- the value contract -----------------------------------------------------------------
BOX = BoundingBox(1.0, 2.0, 3.5, 4.0)
DETECTION = Detection(name="car", confidence=0.75, box=BOX, object_id=7)
LABELS = LabelSet(frame_id=3, detections=(DETECTION,), model_name="edge")
OBJECT = SceneObject(object_id=7, name="car", box=BOX, visibility=0.5, difficulty=1.5)
LATENCY = LatencyBreakdown(edge_transfer=0.01, edge_detection=0.2)
TRACE = FrameTrace.from_labels(
    frame_id=3,
    edge_labels=LABELS,
    cloud_labels=LABELS,
    observed_labels=LABELS,
    sent_to_cloud=True,
    latency=LATENCY,
    accuracy=AccuracyReport(1, 0, 0),
)
SCORE = ThresholdScore(
    lower=0.2,
    upper=0.8,
    bandwidth_utilization=0.5,
    f_score=0.9,
    average_final_latency=1.2,
    average_initial_latency=0.2,
)
RECORD = LogRecord(lsn=4, transaction_id="t1", key="k", value=12)

#: One sample of every unfrozen value class and a field to change on a copy.
VALUES = {
    BoundingBox: (BOX, {"x_max": 9.0}),
    Detection: (DETECTION, {"confidence": 0.5}),
    LabelSet: (LABELS, {"frame_id": 4}),
    SceneObject: (OBJECT, {"name": "bus"}),
    LatencyBreakdown: (LATENCY, {"final_txn": 0.3}),
    FrameTrace: (TRACE, {"corrections": 2}),
    ThresholdScore: (SCORE, {"f_score": 0.1}),
    LogRecord: (RECORD, {"value": 13}),
}

#: ``repr`` of the four content values, as the frozen classes printed them.
REPRS = {
    BoundingBox: "BoundingBox(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.0)",
    Detection: (
        "Detection(name='car', confidence=0.75, "
        "box=BoundingBox(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.0), object_id=7)"
    ),
    LabelSet: (
        "LabelSet(frame_id=3, detections=(Detection(name='car', confidence=0.75, "
        "box=BoundingBox(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.0), object_id=7),), "
        "model_name='edge')"
    ),
    SceneObject: (
        "SceneObject(object_id=7, name='car', "
        "box=BoundingBox(x_min=1.0, y_min=2.0, x_max=3.5, y_max=4.0), visibility=0.5, "
        "difficulty=1.5, confusable_name='unknown', velocity=(0.0, 0.0))"
    ),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_classes_are_slotted_unfrozen_values(cls):
    value, change = VALUES[cls]
    assert dataclasses.is_dataclass(cls)
    assert not cls.__dataclass_params__.frozen
    assert cls.__slots__ == tuple(field.name for field in dataclasses.fields(cls))
    assert not hasattr(value, "__dict__")

    # Keyword construction from its own fields gives an equal, equally hashed value.
    as_keywords = {field.name: getattr(value, field.name) for field in dataclasses.fields(cls)}
    twin = cls(**as_keywords)
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert hash(value) == hash(tuple(as_keywords.values()))  # what frozen=True, eq=True generates
    assert repr(twin) == repr(value)
    assert len({value, twin}) == 1

    changed = dataclasses.replace(value, **change)
    assert changed != value
    assert dataclasses.replace(changed, **{name: getattr(value, name) for name in change}) == value
    assert value != as_keywords and value != tuple(as_keywords.values())

    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", REPRS, ids=lambda cls: cls.__name__)
def test_content_value_reprs_are_pinned(cls):
    assert repr(VALUES[cls][0]) == REPRS[cls]


def test_post_init_errors_are_the_frozen_classes():
    with pytest.raises(ValueError, match=r"^degenerate bounding box: BoundingBox\(x_min=2.0, "):
        BoundingBox(2.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^degenerate bounding box"):
        BoundingBox(0.0, 2.0, 1.0, 1.0)
    BoundingBox(1.0, 1.0, 1.0, 1.0)  # zero area is valid
    with pytest.raises(ValueError, match=r"^confidence must be in \[0, 1\], got 1.5$"):
        Detection("car", 1.5, BOX)
    with pytest.raises(ValueError, match=r"^visibility must be in \(0, 1\], got 0.0$"):
        SceneObject(1, "car", BOX, visibility=0.0)
    with pytest.raises(ValueError, match="^difficulty must be >= 1, got 0.5$"):
        SceneObject(1, "car", BOX, difficulty=0.5)


def test_trace_equality_is_bitwise_on_label_floats():
    """A trace compares its packed label doubles bit for bit: ``-0.0`` and
    ``0.0`` make unequal traces whose rendered label sets are equal.  (A
    NaN cannot reach a trace: no box or detection accepts one.)"""
    signed = LabelSet(3, (Detection("car", 0.75, BoundingBox(-0.0, 2.0, 3.5, 4.0), 7),), "edge")
    unsigned = LabelSet(3, (Detection("car", 0.75, BoundingBox(0.0, 2.0, 3.5, 4.0), 7),), "edge")
    assert signed == unsigned
    a, b = (
        FrameTrace.from_labels(3, labels, LABELS, LABELS, True, LATENCY, AccuracyReport(1, 0, 0))
        for labels in (signed, unsigned)
    )
    assert a != b and a.edge_row != b.edge_row
    assert a.edge_labels == b.edge_labels
    assert repr(a.edge_labels) == repr(signed) != repr(unsigned)
    with pytest.raises(ValueError):
        Detection("car", math.nan, BOX)


@pytest.mark.parametrize("position", range(4))
def test_a_nan_coordinate_is_a_degenerate_box(position):
    """Both of the old ``<`` comparisons are false on a NaN, so it got through."""
    coordinates = [0.0, 0.0, 1.0, 1.0]
    coordinates[position] = math.nan
    with pytest.raises(ValueError, match="^degenerate bounding box"):
        BoundingBox(*coordinates)


@pytest.mark.parametrize("name", ["geo-baseline", "fig4-ms-sr", "adaptive-thresholds"])
def test_no_seeded_run_builds_a_box_the_check_refuses(name, monkeypatch):
    """The rewritten check differs from the old one on NaN coordinates only,
    so it changed no run as long as no run builds a box with one."""
    post_init = BoundingBox.__post_init__
    built = [0]

    def checking_post_init(self):
        built[0] += 1
        coordinates = (self.x_min, self.y_min, self.x_max, self.y_max)
        assert not any(math.isnan(value) for value in coordinates)
        post_init(self)

    monkeypatch.setattr(BoundingBox, "__post_init__", checking_post_init)
    spec = get_scenario(name)
    report = run(spec.with_(frames=min(spec.frames, 60)))
    assert report.frames > 0 and built[0] > report.frames


# -- the detector against the scalar detector it replaced --------------------------------
class ReferenceDetector:
    """``SimulatedDetector`` as of commit c6ba702: one ``rng.normal`` per
    jitter, ``_jitter_box`` and ``_draw_confidence`` called per object."""

    def __init__(self, profile: ModelProfile, rng: np.random.Generator, latency_scale=1.0):
        self._profile = profile
        self._rng = rng
        self._latency_scale = latency_scale

    def detect(self, frame: Frame) -> tuple[LabelSet, float]:
        detections: list[Detection] = []
        profile = self._profile
        rng = self._rng
        for obj in frame.objects:
            if rng.random() > profile.recall * obj.visibility:
                continue
            difficulty = obj.difficulty
            mislabel_prob = min(1.0, profile.mislabel_rate * difficulty)
            mislabelled = rng.random() < mislabel_prob
            name = obj.confusable_name if mislabelled else obj.name
            box = self._jitter_box(obj.box)
            confidence = self._draw_confidence(correct=not mislabelled, difficulty=difficulty)
            detections.append(
                Detection(name=name, confidence=confidence, box=box, object_id=obj.object_id)
            )
        if profile.false_positive_rate > 0.0:
            for _ in range(rng.poisson(profile.false_positive_rate)):
                detections.append(self._hallucinate(frame))
        latency = float(rng.normal(profile.inference_latency, profile.latency_jitter))
        if latency < 0.001:
            latency = 0.001
        latency = latency * self._latency_scale
        labels = LabelSet(
            frame_id=frame.frame_id, detections=tuple(detections), model_name=profile.name
        )
        return labels, latency

    def _jitter_box(self, box: BoundingBox) -> BoundingBox:
        noise = self._profile.box_noise
        if noise <= 0:
            return box
        rng = self._rng
        x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
        dx = rng.normal(0.0, noise * (x_max - x_min))
        dy = rng.normal(0.0, noise * (y_max - y_min))
        scale = float(rng.normal(1.0, noise))
        scale = 0.5 if scale < 0.5 else (1.5 if scale > 1.5 else scale)
        x_min, y_min, x_max, y_max = x_min + dx, y_min + dy, x_max + dx, y_max + dy
        center_x = (x_min + x_max) / 2.0
        center_y = (y_min + y_max) / 2.0
        half_w = (x_max - x_min) * scale / 2.0
        half_h = (y_max - y_min) * scale / 2.0
        return BoundingBox(center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h)

    def _draw_confidence(self, correct: bool, difficulty: float) -> float:
        profile = self._profile
        mean = profile.confidence_correct if correct else profile.confidence_error
        mean = mean / max(difficulty, 1.0) if difficulty > 1.0 else mean
        value = float(self._rng.normal(mean, profile.confidence_spread))
        return 0.01 if value < 0.01 else (0.999 if value > 0.999 else value)

    def _hallucinate(self, frame: Frame) -> Detection:
        width, height = frame.width, frame.height
        box_w = self._rng.uniform(0.05, 0.2) * width
        box_h = self._rng.uniform(0.05, 0.2) * height
        x = self._rng.uniform(0, max(width - box_w, 1.0))
        y = self._rng.uniform(0, max(height - box_h, 1.0))
        name = frame.query_class if frame.query_class else "object"
        confidence = self._draw_confidence(correct=False, difficulty=1.0)
        return Detection(
            name=name, confidence=confidence, box=BoundingBox(x, y, x + box_w, y + box_h), object_id=None
        )


#: Edge and cloud profiles, with and without hallucination (the stress
#: pair draws no Poisson), without box noise (one normal per object, not
#: four), and one that mislabels with a probability above 1 on hard objects.
PROFILES = [
    EDGE_TINY_YOLOV3,
    CLOUD_YOLOV3_416,
    STRESS_EDGE,
    STRESS_CLOUD,
    dataclasses.replace(EDGE_TINY_YOLOV3, name="edge-no-box-noise", box_noise=0.0),
    dataclasses.replace(CLOUD_YOLOV3_416, name="cloud-no-box-noise", box_noise=0.0),
    dataclasses.replace(EDGE_TINY_YOLOV3, name="edge-mislabels", mislabel_rate=0.6),
]

_coordinate = st.floats(min_value=0.0, max_value=1200.0, allow_nan=False)
_extent = st.floats(min_value=0.5, max_value=400.0, allow_nan=False)
_visibility = st.one_of(
    st.sampled_from([0.05, 1e-9, 1.0, 0.999999]), st.floats(min_value=0.01, max_value=1.0)
)
_difficulty = st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=3.0))


@st.composite
def _scene_objects(draw, object_id):
    x, y, w, h = draw(_coordinate), draw(_coordinate), draw(_extent), draw(_extent)
    return SceneObject(
        object_id=object_id,
        name="person",
        box=BoundingBox(x, y, x + w, y + h),
        visibility=draw(_visibility),
        difficulty=draw(_difficulty),
        confusable_name="tree",
    )


@st.composite
def _frames(draw, frame_id):
    count = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=40)))
    objects = tuple(draw(_scene_objects(index)) for index in range(count))
    return Frame(
        frame_id=frame_id,
        width=1280.0,
        height=720.0,
        objects=objects,
        query_class=draw(st.sampled_from(["", "person"])),
    )


@st.composite
def _videos(draw):
    return [draw(_frames(index)) for index in range(draw(st.integers(min_value=1, max_value=5)))]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda profile: profile.name)
@settings(max_examples=40, deadline=None)
@given(video=_videos(), seed=st.integers(min_value=0, max_value=2**32), scale=st.sampled_from([1.0, 2.5]))
def test_detector_is_the_scalar_detector_frame_after_frame(profile, video, seed, scale):
    detector = SimulatedDetector(profile, np.random.default_rng(seed), latency_scale=scale)
    reference = ReferenceDetector(profile, np.random.default_rng(seed), latency_scale=scale)
    for frame in video:
        labels, latency = detector.detect(frame)
        expected_labels, expected_latency = reference.detect(frame)
        assert labels == expected_labels
        assert repr(labels) == repr(expected_labels)  # tells -0.0 from 0.0, which == does not
        assert latency == expected_latency
        assert detector._rng.bit_generator.state == reference._rng.bit_generator.state


@pytest.mark.parametrize("profile", PROFILES, ids=lambda profile: profile.name)
def test_detector_is_the_scalar_detector_on_a_library_video(profile):
    """The same on frames the synthetic scene itself produces (objects that
    drift, leave and get culled), for 60 frames of every library video."""
    from repro.video.library import VIDEO_LIBRARY, make_video

    for key in sorted(set(VIDEO_LIBRARY) - {"stress"}):
        frames = list(make_video(key, num_frames=60, seed=11).frames())
        assert any(frame.objects for frame in frames)
        detector = SimulatedDetector(profile, np.random.default_rng(5))
        reference = ReferenceDetector(profile, np.random.default_rng(5))
        for frame in frames:
            assert repr(detector.detect(frame)) == repr(reference.detect(frame))
        assert detector._rng.bit_generator.state == reference._rng.bit_generator.state


def test_empty_frames_draw_only_the_latency():
    """A content-free frame costs the stress profiles one normal (the
    latency) and nothing else — no gate, no Poisson, no jitter."""
    frame = Frame(frame_id=0, width=1280.0, height=720.0)
    for profile in (STRESS_EDGE, STRESS_CLOUD):
        detector = SimulatedDetector(profile, np.random.default_rng(3))
        twin = np.random.default_rng(3)
        for _ in range(5):
            labels, latency = detector.detect(frame)
            assert labels == LabelSet(0, (), profile.name) and not labels
            assert latency == max(
                0.001, float(twin.normal(profile.inference_latency, profile.latency_jitter))
            )
        assert detector._rng.bit_generator.state == twin.bit_generator.state
