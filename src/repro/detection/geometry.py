"""Bounding boxes and overlap computations.

Croesus matches edge detections to cloud detections by bounding-box
overlap (Section 3.3.2): two labels are considered to refer to the same
object when their boxes overlap by more than a configurable percentage
(10% in the paper's evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class BoundingBox:
    """An axis-aligned bounding box in pixel coordinates.

    Coordinates follow the usual image convention: ``(x_min, y_min)`` is
    the top-left corner and ``(x_max, y_max)`` the bottom-right corner.

    Immutable by convention and hashed by value — not frozen, because a
    frozen ``__init__`` pays one ``object.__setattr__`` per field (~3x) and
    one box is built per detection and per scene step.  Never assign to a
    field; build a new box.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        # Written so that a NaN coordinate (every comparison false) is refused.
        if not (self.x_min <= self.x_max and self.y_min <= self.y_max):
            raise ValueError(f"degenerate bounding box: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def intersection(self, other: "BoundingBox") -> float:
        """Area of the intersection of two boxes (0 if disjoint)."""
        x_overlap = min(self.x_max, other.x_max) - max(self.x_min, other.x_min)
        y_overlap = min(self.y_max, other.y_max) - max(self.y_min, other.y_min)
        if x_overlap <= 0 or y_overlap <= 0:
            return 0.0
        return x_overlap * y_overlap

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        """Return a copy shifted by ``(dx, dy)``."""
        return BoundingBox(
            self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy
        )

    def scaled(self, factor: float) -> "BoundingBox":
        """Return a copy scaled around its center by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        cx, cy = self.center
        half_w = self.width * factor / 2.0
        half_h = self.height * factor / 2.0
        return BoundingBox(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    def clipped(self, width: float, height: float) -> "BoundingBox":
        """Clip the box to a ``width x height`` frame."""
        return BoundingBox(
            min(max(self.x_min, 0.0), width),
            min(max(self.y_min, 0.0), height),
            min(max(self.x_max, 0.0), width),
            min(max(self.y_max, 0.0), height),
        )

    def distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance from the box center to ``(x, y)``.

        Used by the room-reservation task to pick the label closest to the
        center of the frame.
        """
        cx, cy = self.center
        return ((cx - x) ** 2 + (cy - y) ** 2) ** 0.5


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    inter = a.intersection(b)
    if inter == 0.0:
        return 0.0
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def overlap_ratio(a: BoundingBox, b: BoundingBox) -> float:
    """Overlap relative to the smaller box, in [0, 1].

    The paper describes label matching as "if the label overlap in more
    than X%"; relative-to-smaller-box is the most permissive reading and
    behaves well when the edge model produces slightly shrunken or
    inflated boxes.
    """
    inter = a.intersection(b)
    if inter == 0.0:
        return 0.0
    smaller = min(a.area, b.area)
    if smaller <= 0.0:
        return 0.0
    return inter / smaller
