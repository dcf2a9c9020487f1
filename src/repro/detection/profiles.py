"""Model profiles: the statistical stand-ins for real CNNs.

A :class:`ModelProfile` captures everything Croesus observes about a
detector — how often it finds an object, how often it mislabels one, how
noisy its boxes and confidences are, and how long inference takes.  The
presets below are calibrated so that the edge/cloud accuracy and latency
gaps match the qualitative numbers reported in the paper:

* Tiny YOLOv3 at the edge: per-frame inference of roughly 150-250 ms on a
  t3a.xlarge CPU machine, noticeably lower recall/precision.
* YOLOv3 at the cloud: 0.7 s (320), ~1.1 s (416) and ~2.3 s (608)
  detection latency (Table 2), near-ground-truth accuracy — the paper
  treats YOLOv3's output as the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelProfile:
    """Statistical description of a detection model.

    Attributes
    ----------
    name:
        Human-readable model name.
    recall:
        Probability that a ground-truth object is detected at all, before
        the per-object difficulty modifier of the video is applied.
    mislabel_rate:
        Probability that a detected object is assigned the wrong class
        name (e.g. player ``B`` instead of player ``D``).
    false_positive_rate:
        Expected number of hallucinated detections per frame.
    box_noise:
        Standard deviation of bounding-box corner jitter, as a fraction of
        the object size.
    confidence_correct:
        Mean confidence assigned to correctly labelled detections.
    confidence_error:
        Mean confidence assigned to mislabelled or hallucinated
        detections.
    confidence_spread:
        Standard deviation of the confidence noise.
    inference_latency:
        Mean per-frame inference latency in seconds on the reference
        machine (t3a.xlarge).
    latency_jitter:
        Standard deviation of the inference latency, in seconds.
    """

    name: str
    recall: float
    mislabel_rate: float
    false_positive_rate: float
    box_noise: float
    confidence_correct: float
    confidence_error: float
    confidence_spread: float
    inference_latency: float
    latency_jitter: float

    def __post_init__(self) -> None:
        for field_name in ("recall", "mislabel_rate", "confidence_correct", "confidence_error"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.inference_latency < 0 or self.latency_jitter < 0:
            raise ValueError("latencies must be non-negative")
        if self.false_positive_rate < 0:
            raise ValueError("false_positive_rate must be non-negative")

    def with_name(self, name: str) -> "ModelProfile":
        """Return a copy renamed to ``name``."""
        return replace(self, name=name)


#: Tiny YOLOv3 running on an edge CPU machine: fast, inaccurate, with a
#: wide confidence spread (which is exactly what makes bandwidth
#: thresholding interesting).
EDGE_TINY_YOLOV3 = ModelProfile(
    name="tiny-yolov3",
    recall=0.72,
    mislabel_rate=0.18,
    false_positive_rate=0.35,
    box_noise=0.12,
    confidence_correct=0.66,
    confidence_error=0.38,
    confidence_spread=0.17,
    inference_latency=0.190,
    latency_jitter=0.025,
)

#: YOLOv3 with 320x320 input: the smallest cloud model of Table 2.
CLOUD_YOLOV3_320 = ModelProfile(
    name="yolov3-320",
    recall=0.965,
    mislabel_rate=0.02,
    false_positive_rate=0.03,
    box_noise=0.02,
    confidence_correct=0.90,
    confidence_error=0.55,
    confidence_spread=0.05,
    inference_latency=0.70,
    latency_jitter=0.05,
)

#: YOLOv3 with 416x416 input: the paper's default cloud model.
CLOUD_YOLOV3_416 = ModelProfile(
    name="yolov3-416",
    recall=0.985,
    mislabel_rate=0.01,
    false_positive_rate=0.02,
    box_noise=0.015,
    confidence_correct=0.93,
    confidence_error=0.55,
    confidence_spread=0.04,
    inference_latency=1.12,
    latency_jitter=0.07,
)

#: YOLOv3 with 608x608 input: the largest, slowest cloud model.
CLOUD_YOLOV3_608 = ModelProfile(
    name="yolov3-608",
    recall=0.995,
    mislabel_rate=0.005,
    false_positive_rate=0.01,
    box_noise=0.01,
    confidence_correct=0.95,
    confidence_error=0.55,
    confidence_spread=0.03,
    inference_latency=2.34,
    latency_jitter=0.12,
)

#: Mapping used by Table 2 and the examples to look profiles up by name.
CLOUD_PROFILES: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in (CLOUD_YOLOV3_320, CLOUD_YOLOV3_416, CLOUD_YOLOV3_608)
}


#: Noise-free stand-ins for the scale-stress benchmark: the same service
#: latency distribution as the real presets (so queueing behaviour and
#: saturation math are unchanged) but zero hallucinated detections —
#: paired with the content-free video preset, frames carry no labels at
#: all and wall clock measures the engine, not the label plumbing.
STRESS_EDGE = replace(
    EDGE_TINY_YOLOV3, name="stress-edge", false_positive_rate=0.0
)
STRESS_CLOUD = replace(
    CLOUD_YOLOV3_416, name="stress-cloud", false_positive_rate=0.0
)


#: Every named profile a :class:`~repro.experiments.spec.ScenarioSpec`
#: can select via ``edge_model`` / ``cloud_model``.
MODEL_LIBRARY: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in (
        EDGE_TINY_YOLOV3,
        CLOUD_YOLOV3_320,
        CLOUD_YOLOV3_416,
        CLOUD_YOLOV3_608,
        STRESS_EDGE,
        STRESS_CLOUD,
    )
}
