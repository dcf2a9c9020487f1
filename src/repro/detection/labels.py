"""Detections and label sets.

A *detection* is what the paper calls a label ``L[i]``: a name, a
confidence and bounding-box coordinates.  A :class:`LabelSet` is the set
of detections a model produced for one frame (``Le`` at the edge, ``Lc``
at the cloud).  A recorded frame keeps its sets packed as
:class:`LabelRow`\\ s, and what the client observed as a :class:`ViewRow`
of picks into them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

from repro.detection.geometry import BoundingBox


@dataclass(slots=True, unsafe_hash=True)
class Detection:
    """One detected object.

    Immutable by convention and hashed by value, like
    :class:`~repro.detection.geometry.BoundingBox`; use
    :meth:`with_confidence` / :meth:`with_name` instead of assigning.

    Attributes
    ----------
    name:
        Label name (e.g. ``"person"``, ``"Engineering Building"``).
    confidence:
        Model confidence in [0, 1].
    box:
        Bounding box of the detection.
    object_id:
        Identifier of the ground-truth object this detection came from,
        or ``None`` for a hallucinated (false-positive) detection.  Only
        the simulation substrate uses this; Croesus itself never looks at
        it.
    """

    name: str
    confidence: float
    box: BoundingBox
    object_id: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    def with_confidence(self, confidence: float) -> "Detection":
        """Return a copy with a different confidence."""
        return replace(self, confidence=confidence)

    def with_name(self, name: str) -> "Detection":
        """Return a copy with a different label name."""
        return replace(self, name=name)


@dataclass(slots=True, unsafe_hash=True)
class LabelSet:
    """The detections produced by one model for one frame (immutable by
    convention, like :class:`Detection`; the filters return new sets)."""

    frame_id: int
    detections: tuple[Detection, ...] = field(default_factory=tuple)
    model_name: str = "unknown"

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __len__(self) -> int:
        return len(self.detections)

    def __bool__(self) -> bool:
        return bool(self.detections)

    def names(self) -> list[str]:
        """Label names in detection order."""
        return [detection.name for detection in self.detections]

    def filter_confidence(self, minimum: float) -> "LabelSet":
        """Drop detections with confidence strictly below ``minimum``."""
        if not self.detections:
            return self
        kept = tuple(d for d in self.detections if d.confidence >= minimum)
        return LabelSet(self.frame_id, kept, self.model_name)


class LabelRow(NamedTuple):
    """A :class:`LabelSet` packed for keeping: four values, no object per label.

    ``keys`` is ``name, object_id`` per detection, flattened; ``values``
    holds ``confidence, x_min, y_min, x_max, y_max`` per detection as
    little-endian doubles, so every float comes back bit for bit (``-0.0``
    and subnormals included; an ``int`` comes back as the equal float).
    A row is hashable and compared by value — bitwise on the doubles.
    :meth:`pack` builds one; :meth:`render` builds an equal ``LabelSet``
    on every call.
    """

    frame_id: int
    model_name: str
    keys: tuple
    values: bytes

    @classmethod
    def pack(cls, labels: LabelSet) -> "LabelRow":
        keys: list = []
        values: list = []
        for detection in labels.detections:
            box = detection.box
            keys += (detection.name, detection.object_id)
            values += (detection.confidence, box.x_min, box.y_min, box.x_max, box.y_max)
        return cls(
            labels.frame_id,
            labels.model_name,
            tuple(keys),
            struct.pack(f"<{len(values)}d", *values),
        )

    def render(self) -> LabelSet:
        keys = iter(self.keys)
        numbers = iter(struct.unpack(f"<{len(self.values) // 8}d", self.values))
        return LabelSet(
            self.frame_id,
            tuple(
                Detection(name, confidence, BoundingBox(x_min, y_min, x_max, y_max), object_id)
                for name, object_id, confidence, x_min, y_min, x_max, y_max in zip(
                    keys, keys, numbers, numbers, numbers, numbers, numbers
                )
            ),
            self.model_name,
        )


#: One detection's five doubles in a :class:`LabelRow`'s ``values``.
_DETECTION_VALUES = struct.Struct("<5d")


class ViewRow(NamedTuple):
    """An observed view kept as picks into its frame's ``Le`` / ``Lc`` rows.

    A pick ``i >= 0`` shows ``Le``'s detection ``i``, a pick ``~j`` (that
    is, ``-j - 1``) ``Lc``'s detection ``j``; the view lists them in pick
    order.  The view the client sees is made of those two sets' labels
    (Section 3.3.2), so keeping the picks keeps the view.  :meth:`render`
    builds an equal ``LabelSet`` from the two rows, unpacking only the
    picked entries.
    """

    frame_id: int
    model_name: str
    picks: tuple[int, ...]

    def render(self, edge: LabelRow, cloud: LabelRow) -> LabelSet:
        detections = []
        for pick in self.picks:
            row, index = (edge, pick) if pick >= 0 else (cloud, ~pick)
            confidence, x_min, y_min, x_max, y_max = _DETECTION_VALUES.unpack_from(
                row.values, 40 * index
            )
            detections.append(
                Detection(
                    row.keys[2 * index],
                    confidence,
                    BoundingBox(x_min, y_min, x_max, y_max),
                    row.keys[2 * index + 1],
                )
            )
        return LabelSet(self.frame_id, tuple(detections), self.model_name)
