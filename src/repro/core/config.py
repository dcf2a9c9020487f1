"""Croesus configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.detection.profiles import CLOUD_YOLOV3_416, EDGE_TINY_YOLOV3, ModelProfile
from repro.network.topology import EdgeCloudTopology
from repro.transactions.policy import TXN_POLICIES


class ConsistencyLevel(Enum):
    """Which multi-stage safety level the edge node enforces."""

    MS_SR = "ms-sr"
    MS_IA = "ms-ia"


@dataclass(frozen=True)
class CroesusConfig:
    """Everything that defines one Croesus deployment/run.

    Attributes
    ----------
    topology:
        Machines and links (see :class:`EdgeCloudTopology`).
    edge_profile, cloud_profile:
        Detection-model profiles for ``Me`` and ``Mc``.
    lower_threshold, upper_threshold:
        The bandwidth-thresholding pair ``(θL, θU)``.  Detections with
        confidence below ``θL`` are discarded, above ``θU`` trusted, and
        in between validated at the cloud.
    min_confidence:
        The edge input-processing component's low-confidence filter
        (detections below this are dropped before triggering anything).
    match_overlap:
        Minimum bounding-box overlap for edge↔cloud label matching and
        for the F-score ground-truth matching (the paper's 10%).
    consistency:
        MS-SR or MS-IA (the default, as in the paper's experiments).
    transaction_policy:
        Commit policy of the consistency layer (see
        :data:`repro.transactions.policy.TXN_POLICIES`): the default
        ``"immediate-2pc"`` runs every atomic-commitment round
        synchronously (the legacy behaviour), ``"batched-2pc"``
        amortises coordinator round trips over per-window batches, and
        ``"async-2pc"`` overlaps the prepare phase with cloud
        validation.  One edge has no remote participant, so on this
        deployment every policy runs as ``"immediate-2pc"`` does (see
        :class:`~repro.core.system.CroesusSystem`).
    operations_per_transaction:
        YCSB-A transaction size (6 in the paper).
    enable_feedback:
        When True, cloud corrections feed back into the edge stage via the
        correction memory and temporal smoothing of
        :mod:`repro.detection.feedback` (the paper's footnote-1 heuristic).
    seed:
        Master seed for all random streams.
    """

    topology: EdgeCloudTopology = field(default_factory=EdgeCloudTopology.default)
    edge_profile: ModelProfile = EDGE_TINY_YOLOV3
    cloud_profile: ModelProfile = CLOUD_YOLOV3_416
    lower_threshold: float = 0.3
    upper_threshold: float = 0.7
    min_confidence: float = 0.05
    match_overlap: float = 0.10
    consistency: ConsistencyLevel = ConsistencyLevel.MS_IA
    transaction_policy: str = "immediate-2pc"
    operations_per_transaction: int = 6
    enable_feedback: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower_threshold <= self.upper_threshold < 1.0 + 1e-9:
            raise ValueError(
                "thresholds must satisfy 0 <= lower <= upper < 1, got "
                f"({self.lower_threshold}, {self.upper_threshold})"
            )
        if not 0.0 <= self.min_confidence < 1.0:
            raise ValueError("min_confidence must be in [0, 1)")
        if not 0.0 <= self.match_overlap <= 1.0:
            raise ValueError("match_overlap must be in [0, 1]")
        if self.operations_per_transaction < 2:
            raise ValueError("operations_per_transaction must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.transaction_policy not in TXN_POLICIES:
            known = ", ".join(TXN_POLICIES)
            raise ValueError(
                f"unknown transaction_policy {self.transaction_policy!r}; "
                f"known policies: {known}"
            )

    def with_thresholds(self, lower: float, upper: float) -> "CroesusConfig":
        """Copy of this config with a different threshold pair."""
        return replace(self, lower_threshold=lower, upper_threshold=upper)

    def with_topology(self, topology: EdgeCloudTopology) -> "CroesusConfig":
        """Copy of this config on a different deployment."""
        return replace(self, topology=topology)

    def with_cloud_profile(self, profile: ModelProfile) -> "CroesusConfig":
        """Copy of this config with a different cloud model."""
        return replace(self, cloud_profile=profile)

    def with_consistency(self, level: ConsistencyLevel) -> "CroesusConfig":
        """Copy of this config with a different safety level."""
        return replace(self, consistency=level)

    def with_feedback(self, enabled: bool = True) -> "CroesusConfig":
        """Copy of this config with edge-model feedback enabled/disabled."""
        return replace(self, enable_feedback=enabled)

    @property
    def thresholds(self) -> tuple[float, float]:
        return (self.lower_threshold, self.upper_threshold)
