"""Video frames.

A frame carries its ground-truth objects (for the simulated detectors), a
nominal encoded size in bytes (for bandwidth accounting) and the object
class the application is querying for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.video.scene import SceneObject


@dataclass(frozen=True, slots=True)
class Frame:
    """One captured video frame.

    Attributes
    ----------
    frame_id:
        Sequence number within the video.
    width, height:
        Frame dimensions in pixels.
    objects:
        Ground-truth scene content.
    size_bytes:
        Encoded size used for network-transfer accounting.
    query_class:
        The object class the application queries for (e.g. ``"person"``).
    auxiliary_input:
        Whether the user clicked the auxiliary device while this frame was
        captured (drives Task 2, the reservation transaction).
    """

    frame_id: int
    width: float
    height: float
    objects: tuple[SceneObject, ...] = field(default_factory=tuple)
    size_bytes: int = 250_000
    query_class: str = ""
    auxiliary_input: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        if self.size_bytes <= 0:
            raise ValueError("frame size must be positive")
