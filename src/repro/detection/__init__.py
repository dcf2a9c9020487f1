"""Object-detection substrate.

The paper runs Tiny YOLOv3 at the edge and YOLOv3 (320/416/608) at the
cloud.  This package provides a *simulated* detector whose outputs —
labels, confidences, bounding boxes — and latency are drawn from a
calibrated :class:`ModelProfile`, so the rest of Croesus exercises exactly
the same code paths as with a real CNN.
"""

from repro.detection.feedback import CorrectionMemory, TemporalSmoother
from repro.detection.geometry import BoundingBox, overlap_ratio
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import LabelMatch, MatchOutcome, match_labels
from repro.detection.metrics import AccuracyReport, evaluate_detections, f_score
from repro.detection.models import SimulatedDetector
from repro.detection.profiles import (
    CLOUD_YOLOV3_320,
    CLOUD_YOLOV3_416,
    CLOUD_YOLOV3_608,
    EDGE_TINY_YOLOV3,
    ModelProfile,
)

__all__ = [
    "CorrectionMemory",
    "TemporalSmoother",
    "BoundingBox",
    "overlap_ratio",
    "Detection",
    "LabelSet",
    "LabelMatch",
    "MatchOutcome",
    "match_labels",
    "AccuracyReport",
    "evaluate_detections",
    "f_score",
    "SimulatedDetector",
    "ModelProfile",
    "EDGE_TINY_YOLOV3",
    "CLOUD_YOLOV3_320",
    "CLOUD_YOLOV3_416",
    "CLOUD_YOLOV3_608",
]
