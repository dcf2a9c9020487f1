"""Synthetic video generation.

A :class:`SyntheticVideo` produces a deterministic stream of
:class:`~repro.video.frames.Frame` objects.  Objects enter the scene
according to a Poisson process, persist for a number of frames while
drifting, and leave.  Per-video parameters (object size, difficulty,
density, auxiliary-click rate) are what differentiate the paper's five
workloads — see :mod:`repro.video.library`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.detection.geometry import BoundingBox
from repro.video.frames import Frame
from repro.video.scene import SceneObject

#: Frame tuples of content-free videos, keyed by their geometry — see
#: :meth:`SyntheticVideo.frames`.  Frames are frozen, so sharing one
#: tuple across every stream of a scale-stress run is safe.
_STATIC_FRAME_CACHE: dict[tuple, tuple[Frame, ...]] = {}


@dataclass(frozen=True)
class ObjectClassSpec:
    """How a class of objects appears in a synthetic video.

    Attributes
    ----------
    name:
        Class name produced by the generator.
    confusable_name:
        Name an erring detector reports instead.
    arrival_rate:
        Expected number of new objects of this class per frame.
    lifetime_frames:
        Mean number of frames an object stays in the scene.
    size_fraction:
        Mean object width/height as a fraction of the frame dimension.
    visibility:
        Base visibility of the class (see :class:`SceneObject`).
    difficulty:
        Base difficulty of the class (see :class:`SceneObject`).
    speed:
        Mean per-frame displacement in pixels.
    """

    name: str
    confusable_name: str = "unknown"
    arrival_rate: float = 0.5
    lifetime_frames: float = 30.0
    size_fraction: float = 0.2
    visibility: float = 1.0
    difficulty: float = 1.0
    speed: float = 4.0


@dataclass
class SyntheticVideo:
    """Deterministic synthetic video stream.

    Parameters
    ----------
    name:
        Video identifier (e.g. ``"street-traffic"``).
    query_class:
        Object class the application queries for in this video.
    classes:
        Object classes that populate the scene.
    num_frames:
        Number of frames the stream produces.
    width, height:
        Frame dimensions in pixels.
    frame_size_bytes:
        Encoded frame size used for bandwidth accounting.
    auxiliary_click_rate:
        Probability that a frame carries an auxiliary-device click.
    rng:
        NumPy generator used for arrivals, placement and lifetimes.
    """

    name: str
    query_class: str
    classes: tuple[ObjectClassSpec, ...]
    num_frames: int
    rng: np.random.Generator
    width: float = 1280.0
    height: float = 720.0
    frame_size_bytes: int = 250_000
    auxiliary_click_rate: float = 0.0
    _active: list[tuple[SceneObject, int]] = field(default_factory=list, init=False)
    _next_object_id: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if not self.classes:
            raise ValueError("a synthetic video needs at least one object class")

    def frames(self) -> Iterator[Frame]:
        """The video's frames in order.

        The returned iterator is single-use: iterating twice continues
        the scene rather than restarting it, so callers that need a
        fresh identical stream should construct a new video (see
        :func:`repro.video.library.make_video`).
        """
        # A video that can never spawn an object or an auxiliary click
        # (the content-free scale-stress preset) produces the same empty
        # frames either way, and its generator feeds nothing else — its
        # frame sequence is a pure function of the geometry, so every
        # such stream shares one immutable cached tuple instead of
        # constructing (and rolling dice for) its own frames.
        static = self.auxiliary_click_rate <= 0.0 and all(
            spec.arrival_rate <= 0.0 for spec in self.classes
        )
        if static and not self._active:
            key = (
                self.num_frames,
                self.width,
                self.height,
                self.frame_size_bytes,
                self.query_class,
            )
            cached = _STATIC_FRAME_CACHE.get(key)
            if cached is None:
                cached = tuple(
                    Frame(
                        frame_id=frame_id,
                        width=self.width,
                        height=self.height,
                        objects=(),
                        size_bytes=self.frame_size_bytes,
                        query_class=self.query_class,
                        auxiliary_input=False,
                    )
                    for frame_id in range(self.num_frames)
                )
                _STATIC_FRAME_CACHE[key] = cached
            return iter(cached)
        return self._generate_frames()

    def _generate_frames(self) -> Iterator[Frame]:
        """Generate frames by advancing the stochastic scene."""
        for frame_id in range(self.num_frames):
            self._spawn_objects()
            self._advance_objects()
            objects = tuple(obj for obj, _ in self._active)
            auxiliary = bool(self.rng.random() < self.auxiliary_click_rate)
            yield Frame(
                frame_id=frame_id,
                width=self.width,
                height=self.height,
                objects=objects,
                size_bytes=self.frame_size_bytes,
                query_class=self.query_class,
                auxiliary_input=auxiliary,
            )

    def _spawn_objects(self) -> None:
        for spec in self.classes:
            for _ in range(self.rng.poisson(spec.arrival_rate)):
                obj = self._make_object(spec)
                lifetime = max(1, int(self.rng.exponential(spec.lifetime_frames)))
                self._active.append((obj, lifetime))

    def _advance_objects(self) -> None:
        survivors: list[tuple[SceneObject, int]] = []
        width, height = self.width, self.height
        for obj, remaining in self._active:
            if remaining <= 0:
                continue
            moved = obj.advanced(width, height)
            box = moved.box
            # SceneObject.is_visible_in_frame, inline.
            if (box.x_max - box.x_min) * (box.y_max - box.y_min) > 4.0:
                survivors.append((moved, remaining - 1))
        self._active = survivors

    def _make_object(self, spec: ObjectClassSpec) -> SceneObject:
        size_w = max(8.0, self.rng.normal(spec.size_fraction, spec.size_fraction / 4) * self.width)
        size_h = max(8.0, self.rng.normal(spec.size_fraction, spec.size_fraction / 4) * self.height)
        x = self.rng.uniform(0, max(self.width - size_w, 1.0))
        y = self.rng.uniform(0, max(self.height - size_h, 1.0))
        angle = self.rng.uniform(0, 2 * np.pi)
        speed = max(0.0, self.rng.normal(spec.speed, spec.speed / 3))
        velocity = (speed * float(np.cos(angle)), speed * float(np.sin(angle)))
        visibility = float(self.rng.normal(spec.visibility, 0.05))
        visibility = 0.05 if visibility < 0.05 else (1.0 if visibility > 1.0 else visibility)
        difficulty = float(max(1.0, self.rng.normal(spec.difficulty, 0.1)))
        obj = SceneObject(
            object_id=self._next_object_id,
            name=spec.name,
            box=BoundingBox(x, y, x + size_w, y + size_h).clipped(self.width, self.height),
            visibility=visibility,
            difficulty=difficulty,
            confusable_name=spec.confusable_name,
            velocity=velocity,
        )
        self._next_object_id += 1
        return obj
