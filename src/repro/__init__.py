"""Croesus reproduction: multi-stage processing and transactions for
video analytics in edge-cloud systems (ICDE 2022).

The top-level package re-exports the pieces most applications need: the
system and its configuration, the threshold optimiser, the baselines, the
multi-stage transaction API, and the paper's video workloads.
"""

from repro.core.baselines import (
    BaselineResult,
    run_cloud_only,
    run_croesus,
    run_edge_only,
    run_hybrid_cloud,
    run_hybrid_croesus,
)
from repro.core.adaptive import ADAPTATION_MODES, AdaptationConfig, AdaptationManager
from repro.core.config import ConsistencyLevel, CroesusConfig
from repro.core.optimizer import (
    OptimizationResult,
    ThresholdEvaluator,
    brute_force_search,
    gradient_step_search,
)
from repro.core.results import LatencyBreakdown, RunResult
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.network.topology import EdgeCloudTopology
from repro.transactions import (
    MSIAController,
    MultiStageTransaction,
    SectionSpec,
    TransactionBank,
    TwoStage2PL,
)
from repro.video.library import VIDEO_LIBRARY, make_camera_streams, make_video

# Imported after the core/video modules: the cluster package pulls in
# repro.video before repro.detection, which only resolves once the
# detection package has finished loading.
from repro.cluster.router import make_router  # noqa: E402
from repro.cluster import ClusterConfig, ClusterRunResult, ClusterSystem  # noqa: E402

# The declarative experiment layer sits on top of both deployments, so
# it must import last.
from repro.experiments import (  # noqa: E402
    RunReport,
    ScenarioSpec,
    Sweep,
    SweepAxis,
    get_scenario,
    get_sweep,
    list_scenarios,
    list_sweeps,
    register_scenario,
    register_sweep,
    run_scenario,
    validate_report,
)

__version__ = "1.0.0"

__all__ = [
    "CroesusConfig",
    "ConsistencyLevel",
    "CroesusSystem",
    "ClusterConfig",
    "ClusterRunResult",
    "ClusterSystem",
    "make_router",
    "ThresholdPolicy",
    "ThresholdEvaluator",
    "OptimizationResult",
    "brute_force_search",
    "gradient_step_search",
    "ADAPTATION_MODES",
    "AdaptationConfig",
    "AdaptationManager",
    "RunResult",
    "LatencyBreakdown",
    "EdgeCloudTopology",
    "BaselineResult",
    "run_edge_only",
    "run_cloud_only",
    "run_croesus",
    "run_hybrid_cloud",
    "run_hybrid_croesus",
    "MultiStageTransaction",
    "SectionSpec",
    "TransactionBank",
    "TwoStage2PL",
    "MSIAController",
    "VIDEO_LIBRARY",
    "make_video",
    "make_camera_streams",
    "ScenarioSpec",
    "RunReport",
    "run_scenario",
    "Sweep",
    "SweepAxis",
    "validate_report",
    "register_scenario",
    "register_sweep",
    "get_scenario",
    "get_sweep",
    "list_scenarios",
    "list_sweeps",
    "__version__",
]
