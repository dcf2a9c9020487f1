"""Ground-truth scene objects.

A :class:`SceneObject` is what a frame "really" contains.  Detectors only
see it through their error model; Croesus never reads ground truth
directly (the cloud model is near-perfect, mirroring the paper's use of
YOLOv3 output as truth).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.geometry import BoundingBox


@dataclass(slots=True, unsafe_hash=True)
class SceneObject:
    """One real object present in a frame.

    Immutable by convention and hashed by value, like its box (frozen
    would cost ~3x on ``__init__``, once per object per frame);
    :meth:`advanced` returns the next frame's object.

    Attributes
    ----------
    object_id:
        Stable identity of the object across frames (a car keeps its id
        while it drives through the scene).
    name:
        True class name (e.g. ``"person"``, ``"bus"``).
    box:
        True bounding box.
    visibility:
        In (0, 1]; scales the probability that a detector finds the
        object at all (small/occluded objects are less visible).
    difficulty:
        >= 1; scales the probability of mislabelling and depresses the
        confidence of correct detections (blurry or ambiguous objects).
    confusable_name:
        The class name an erring detector reports instead of ``name``.
    velocity:
        Per-frame translation of the box, in pixels.
    """

    object_id: int
    name: str
    box: BoundingBox
    visibility: float = 1.0
    difficulty: float = 1.0
    confusable_name: str = "unknown"
    velocity: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.visibility <= 1.0:
            raise ValueError(f"visibility must be in (0, 1], got {self.visibility}")
        if self.difficulty < 1.0:
            raise ValueError(f"difficulty must be >= 1, got {self.difficulty}")

    def advanced(self, frame_width: float, frame_height: float) -> "SceneObject":
        """Return the object one frame later, clipped to the frame."""
        dx, dy = self.velocity
        if dx == 0.0 and dy == 0.0:
            return self
        # box.translated(dx, dy).clipped(frame_width, frame_height) on
        # plain floats, so a step builds one box and one object; each
        # min(max(v, 0.0), limit) spelled as the comparisons it performs.
        box = self.box
        x_min = box.x_min + dx
        x_min = 0.0 if 0.0 > x_min else x_min
        x_min = frame_width if frame_width < x_min else x_min
        y_min = box.y_min + dy
        y_min = 0.0 if 0.0 > y_min else y_min
        y_min = frame_height if frame_height < y_min else y_min
        x_max = box.x_max + dx
        x_max = 0.0 if 0.0 > x_max else x_max
        x_max = frame_width if frame_width < x_max else x_max
        y_max = box.y_max + dy
        y_max = 0.0 if 0.0 > y_max else y_max
        y_max = frame_height if frame_height < y_max else y_max
        if (x_max - x_min) * (y_max - y_min) <= 0.0:
            # The object left the frame entirely; park it on the border as
            # a degenerate-but-valid sliver so generators can cull it.
            x_min, y_min, x_max, y_max = 0.0, 0.0, 1.0, 1.0
        return SceneObject(
            self.object_id,
            self.name,
            BoundingBox(x_min, y_min, x_max, y_max),
            self.visibility,
            self.difficulty,
            self.confusable_name,
            self.velocity,
        )

    @property
    def is_visible_in_frame(self) -> bool:
        """Whether the object still occupies a meaningful area."""
        box = self.box
        return (box.x_max - box.x_min) * (box.y_max - box.y_min) > 4.0
