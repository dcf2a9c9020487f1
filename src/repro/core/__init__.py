"""Croesus: the multi-stage edge-cloud video-analytics system.

This package wires the substrates together: a :class:`CroesusSystem`
runs a video through the edge model, triggers multi-stage transactions,
selectively validates frames with the cloud model (bandwidth
thresholding), and produces the latency / accuracy / bandwidth metrics
the paper reports.
"""

from repro.core.baselines import (
    BaselineResult,
    run_cloud_only,
    run_croesus,
    run_edge_only,
    run_hybrid_cloud,
    run_hybrid_croesus,
)
from repro.core.adaptive import (
    ADAPTATION_MODES,
    AdaptationConfig,
    AdaptationManager,
    ThresholdUpdate,
)
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.multi_tier import MultiTierPipeline, MultiTierResult, TierSpec
from repro.core.optimizer import (
    OptimizationResult,
    ThresholdEvaluator,
    brute_force_search,
    gradient_step_search,
)
from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.core.system import CroesusSystem
from repro.core.thresholds import ConfidenceInterval, ThresholdPolicy

__all__ = [
    "CroesusConfig",
    "ConsistencyLevel",
    "CroesusSystem",
    "MultiTierPipeline",
    "MultiTierResult",
    "TierSpec",
    "ThresholdPolicy",
    "ConfidenceInterval",
    "FrameTrace",
    "LatencyBreakdown",
    "RunResult",
    "ThresholdEvaluator",
    "OptimizationResult",
    "brute_force_search",
    "gradient_step_search",
    "ADAPTATION_MODES",
    "AdaptationConfig",
    "AdaptationManager",
    "ThresholdUpdate",
    "BaselineResult",
    "run_edge_only",
    "run_cloud_only",
    "run_croesus",
    "run_hybrid_cloud",
    "run_hybrid_croesus",
]
