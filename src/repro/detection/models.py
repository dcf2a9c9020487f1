"""Simulated detection models.

The :class:`SimulatedDetector` turns a frame's ground-truth scene into a
:class:`~repro.detection.labels.LabelSet` according to a
:class:`~repro.detection.profiles.ModelProfile`:

* each ground-truth object is detected with probability
  ``recall * object.visibility``,
* a detected object is mislabelled with probability ``mislabel_rate``
  (scaled up for "hard" objects),
* bounding boxes are jittered by ``box_noise``,
* a Poisson number of false positives is hallucinated per frame,
* confidences are drawn around ``confidence_correct`` /
  ``confidence_error`` and clipped to [0, 1],
* the reported inference latency is Gaussian around
  ``inference_latency``.

This is the substitution documented in DESIGN.md: Croesus only consumes
labels, confidences, boxes and latency, so a calibrated statistical
detector reproduces the accuracy/performance trade-off the paper studies.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.profiles import ModelProfile
from repro.video.frames import Frame
from repro.video.scene import SceneObject


class DetectionModel(Protocol):
    """Anything that can turn a frame into labels with a latency."""

    @property
    def name(self) -> str:  # pragma: no cover - protocol
        ...

    def detect(self, frame: Frame) -> tuple[LabelSet, float]:
        """Return ``(labels, inference_latency_seconds)`` for a frame."""
        ...  # pragma: no cover - protocol


class SimulatedDetector:
    """A statistical detector driven by a :class:`ModelProfile`.

    Parameters
    ----------
    profile:
        Error/latency characteristics of the simulated CNN.
    rng:
        NumPy generator; pass a stream from
        :class:`repro.sim.RngRegistry` for reproducibility.
    latency_scale:
        Multiplier on inference latency, used to model slower machines.
    """

    def __init__(
        self,
        profile: ModelProfile,
        rng: np.random.Generator,
        latency_scale: float = 1.0,
    ) -> None:
        if latency_scale <= 0:
            raise ValueError("latency_scale must be positive")
        self._profile = profile
        self._rng = rng
        self._latency_scale = latency_scale

    @property
    def name(self) -> str:
        return self._profile.name

    @property
    def profile(self) -> ModelProfile:
        return self._profile

    def detect(self, frame: Frame) -> tuple[LabelSet, float]:
        """Simulate inference over ``frame``.

        Returns the produced label set and the simulated inference latency
        in seconds.
        """
        profile = self._profile
        rng = self._rng
        # An empty frame (every frame of the content-free stress workloads,
        # twice) pays for none of the object loop's set-up.
        detections = self._detect_objects(frame.objects) if frame.objects else []

        # The Poisson draw must happen whenever hallucination is possible,
        # even when it yields zero — it advances the RNG stream that
        # seeded runs are pinned against.  A rate of exactly zero draws
        # nothing either way, so the noise-free stress profiles skip the
        # call entirely.
        if profile.false_positive_rate > 0.0:
            for _ in range(rng.poisson(profile.false_positive_rate)):
                detections.append(self._hallucinate(frame))

        latency = float(rng.normal(profile.inference_latency, profile.latency_jitter))
        if latency < 0.001:
            latency = 0.001
        latency = latency * self._latency_scale
        labels = LabelSet(
            frame_id=frame.frame_id,
            detections=tuple(detections),
            model_name=profile.name,
        )
        return labels, latency

    def _detect_objects(self, objects: tuple[SceneObject, ...]) -> list[Detection]:
        """Detections of the ground-truth objects the model finds."""
        detections: list[Detection] = []
        profile, rng = self._profile, self._rng
        random, standard_normal = rng.random, rng.standard_normal
        recall, mislabel_rate, noise = profile.recall, profile.mislabel_rate, profile.box_noise
        correct_mean, error_mean = profile.confidence_correct, profile.confidence_error
        spread = profile.confidence_spread
        for obj in objects:
            if random() > recall * obj.visibility:
                continue
            difficulty = obj.difficulty
            # random() < 1, so a probability above 1 needs no clamp.
            mislabelled = random() < mislabel_rate * difficulty
            box = obj.box
            # An object's normals are consecutive in the bit stream, so one
            # standard_normal(4) draws them: rng.normal(loc, scale) is
            # loc + scale * z, applied here term for term (a zero loc adds
            # nothing), and the generator ends where four calls leave it.
            if noise > 0:
                jitter_x, jitter_y, jitter_scale, jitter = standard_normal(4).tolist()
                x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
                dx = (noise * (x_max - x_min)) * jitter_x
                dy = (noise * (y_max - y_min)) * jitter_y
                # Plain float clamp: np.clip on a scalar pays ufunc dispatch
                # on a per-detection path, for the identical IEEE result.
                scale = 1.0 + noise * jitter_scale
                scale = 0.5 if scale < 0.5 else (1.5 if scale > 1.5 else scale)
                # box.translated(dx, dy).scaled(scale), term for term, as one box.
                x_min, y_min, x_max, y_max = x_min + dx, y_min + dy, x_max + dx, y_max + dy
                center_x = (x_min + x_max) / 2.0
                center_y = (y_min + y_max) / 2.0
                half_w = (x_max - x_min) * scale / 2.0
                half_h = (y_max - y_min) * scale / 2.0
                box = BoundingBox(
                    center_x - half_w, center_y - half_h, center_x + half_w, center_y + half_h
                )
            else:
                jitter = standard_normal()
            mean = error_mean if mislabelled else correct_mean
            # Harder objects yield lower confidence even when correctly labelled.
            if difficulty > 1.0:
                mean = mean / difficulty
            confidence = mean + spread * jitter
            confidence = 0.01 if confidence < 0.01 else (0.999 if confidence > 0.999 else confidence)
            detections.append(
                Detection(
                    obj.confusable_name if mislabelled else obj.name, confidence, box, obj.object_id
                )
            )
        return detections

    def _draw_confidence(self, correct: bool, difficulty: float) -> float:
        profile = self._profile
        mean = profile.confidence_correct if correct else profile.confidence_error
        # Harder objects yield lower confidence even when correctly labelled.
        mean = mean / difficulty if difficulty > 1.0 else mean
        value = float(self._rng.normal(mean, profile.confidence_spread))
        return 0.01 if value < 0.01 else (0.999 if value > 0.999 else value)

    def _hallucinate(self, frame: Frame) -> Detection:
        """Produce a false-positive detection somewhere in the frame."""
        width, height = frame.width, frame.height
        box_w = self._rng.uniform(0.05, 0.2) * width
        box_h = self._rng.uniform(0.05, 0.2) * height
        x = self._rng.uniform(0, max(width - box_w, 1.0))
        y = self._rng.uniform(0, max(height - box_h, 1.0))
        name = frame.query_class if frame.query_class else "object"
        confidence = self._draw_confidence(correct=False, difficulty=1.0)
        return Detection(
            name=name,
            confidence=confidence,
            box=BoundingBox(x, y, x + box_w, y + box_h),
            object_id=None,
        )
