"""Generalized multi-tier processing pipeline (paper Section 3.5).

The two-tier edge-cloud deployment generalises to ``m`` tiers — for
example device → edge → regional cloud → central cloud — where each tier
hosts a better (slower) detection model than the one below it.  A frame
is processed tier by tier; after each tier, bandwidth thresholding
decides whether the frame continues upward, and each tier above the
first corrects the labels of the tier below it.

The cascade models latency and accuracy only: it is a loop outside the
simulation engine and runs no transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet
from repro.detection.matching import match_labels
from repro.detection.metrics import AccuracyReport, aggregate_reports, evaluate_detections
from repro.detection.models import SimulatedDetector
from repro.detection.profiles import ModelProfile
from repro.network.latency import LinkProfile
from repro.network.topology import MachineProfile
from repro.sim.rng import RngRegistry
from repro.video.frames import Frame
from repro.video.synthetic import SyntheticVideo


@dataclass(frozen=True)
class TierSpec:
    """One tier of a multi-tier deployment.

    Attributes
    ----------
    name:
        Tier name (e.g. ``"device"``, ``"edge"``, ``"cloud"``).
    model:
        Detection-model profile at this tier.
    machine:
        Machine profile (scales inference latency).
    uplink:
        Link from the previous tier to this one (``None`` for the first
        tier, which is where frames arrive).
    policy:
        Bandwidth-thresholding policy applied to this tier's labels to
        decide whether to forward the frame to the next tier (ignored for
        the last tier).
    """

    name: str
    model: ModelProfile
    machine: MachineProfile
    uplink: LinkProfile | None = None
    policy: ThresholdPolicy | None = None


@dataclass
class TierTrace:
    """Per-tier record for one frame."""

    tier: str
    labels: LabelSet
    detection_latency: float
    transfer_latency: float
    corrections: int
    forwarded: bool


@dataclass
class MultiTierFrameTrace:
    """Everything recorded about one frame in a multi-tier run."""

    frame_id: int
    tiers: list[TierTrace]
    observed_labels: LabelSet
    final_latency: float
    initial_latency: float

    @property
    def tiers_visited(self) -> int:
        return len(self.tiers)


@dataclass
class MultiTierResult:
    """Aggregated outcome of a multi-tier run."""

    traces: list[MultiTierFrameTrace] = field(default_factory=list)
    accuracy_reports: list[AccuracyReport] = field(default_factory=list)

    @property
    def num_frames(self) -> int:
        return len(self.traces)

    @property
    def f_score(self) -> float:
        return aggregate_reports(self.accuracy_reports).f_score

    @property
    def average_initial_latency(self) -> float:
        return mean(t.initial_latency for t in self.traces) if self.traces else 0.0

    @property
    def average_final_latency(self) -> float:
        return mean(t.final_latency for t in self.traces) if self.traces else 0.0

    @property
    def average_tiers_visited(self) -> float:
        return mean(t.tiers_visited for t in self.traces) if self.traces else 0.0

    def forwarding_ratio(self, tier_index: int) -> float:
        """Fraction of frames forwarded beyond tier ``tier_index``."""
        if not self.traces:
            return 0.0
        forwarded = sum(
            1
            for trace in self.traces
            if len(trace.tiers) > tier_index and trace.tiers[tier_index].forwarded
        )
        return forwarded / len(self.traces)


class MultiTierPipeline:
    """Runs frames through an arbitrary number of detection tiers.

    Parameters
    ----------
    tiers:
        Tier specifications, ordered from the first (fast, inaccurate) to
        the last (slow, accurate).  At least two tiers are required.
    seed:
        Master seed for the per-tier detector streams.
    match_overlap:
        Overlap fraction for cross-tier label matching.
    """

    def __init__(
        self,
        tiers: list[TierSpec],
        seed: int = 0,
        match_overlap: float = 0.10,
    ) -> None:
        if len(tiers) < 2:
            raise ValueError("a multi-tier pipeline needs at least two tiers")
        self.tiers = list(tiers)
        self._match_overlap = match_overlap
        self._rngs = RngRegistry(seed)
        self._detectors = [
            SimulatedDetector(
                tier.model,
                self._rngs.stream(f"tier-{index}-{tier.name}"),
                latency_scale=tier.machine.compute_scale,
            )
            for index, tier in enumerate(tiers)
        ]

    # -- public API ---------------------------------------------------------
    def run(self, video: SyntheticVideo) -> MultiTierResult:
        """Process every frame of ``video`` through the tier cascade."""
        result = MultiTierResult()
        for frame in video.frames():
            trace, report = self._process_frame(frame)
            result.traces.append(trace)
            result.accuracy_reports.append(report)
        return result

    # -- per-frame ------------------------------------------------------------
    def _process_frame(self, frame: Frame) -> tuple[MultiTierFrameTrace, AccuracyReport]:
        tier_traces: list[TierTrace] = []
        elapsed = 0.0
        initial_latency = 0.0
        previous_labels: LabelSet | None = None
        observed: LabelSet | None = None

        for index, tier in enumerate(self.tiers):
            transfer = 0.0
            if tier.uplink is not None and index > 0:
                transfer = tier.uplink.transfer_time(frame.size_bytes)
            detector = self._detectors[index]
            labels, detection_latency = detector.detect(frame)
            elapsed += transfer + detection_latency

            corrections = 0
            if previous_labels is None:
                observed = labels
                initial_latency = elapsed
            else:
                report = match_labels(previous_labels, labels, min_overlap=self._match_overlap)
                corrections = report.corrections_needed
                corrected = [
                    match.corrected_label for match in report.matches if match.corrected_label
                ]
                corrected.extend(report.unmatched_cloud)
                observed = LabelSet(frame.frame_id, tuple(corrected), model_name=f"tier-{index}")

            is_last = index == len(self.tiers) - 1
            forward = False
            if not is_last:
                policy = tier.policy or ThresholdPolicy(0.0, 0.999)
                forward = policy.should_validate(labels)
            tier_traces.append(
                TierTrace(
                    tier=tier.name,
                    labels=labels,
                    detection_latency=detection_latency,
                    transfer_latency=transfer,
                    corrections=corrections,
                    forwarded=forward,
                )
            )
            previous_labels = labels
            if not is_last and not forward:
                break

        # Ground truth is the last tier's model applied to the frame (the
        # most accurate detector available), mirroring the two-tier system:
        # a frame that reached the last tier is scored against the labels
        # it was corrected to, so each frame costs one last-tier draw.
        if len(tier_traces) == len(self.tiers):
            truth = tier_traces[-1].labels
        else:
            truth, _ = self._detectors[-1].detect(frame)
        report = evaluate_detections(observed, truth, min_overlap=self._match_overlap)

        trace = MultiTierFrameTrace(
            frame_id=frame.frame_id,
            tiers=tier_traces,
            observed_labels=observed,
            final_latency=elapsed,
            initial_latency=initial_latency,
        )
        return trace, report
