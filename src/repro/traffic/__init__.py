"""Open-loop traffic: arrival processes, admission control, load shedding.

The subsystem that takes the deployments from "drain this finite list of
streams" to "survive whatever the world offers": seeded arrival processes
mint streams at runtime (:mod:`repro.traffic.arrivals`,
:mod:`repro.traffic.source`), admission controllers decide who gets in
(:mod:`repro.traffic.admission`), and an apology-budgeted load shedder
decides which admitted frames to degrade when an edge saturates
(:mod:`repro.traffic.shedding`).

Entry points: :meth:`repro.cluster.system.ClusterSystem.run_open_loop`
(a one-edge open loop is a one-edge cluster), or — at the experiment
layer — a :class:`~repro.experiments.spec.ScenarioSpec` with its
``traffic`` axis set.
"""

from repro.traffic.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    QueueThresholdAdmission,
    TokenBucketAdmission,
    make_admission,
)
from repro.traffic.arrivals import (
    ARRIVAL_PROCESSES,
    STREAM_LENGTHS,
    ArrivalProcess,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    TraceRate,
    empirical_mean_interarrival,
    make_rate_curve,
    sample_stream_length,
)
from repro.traffic.shedding import SHED_APOLOGY, ApologyBudget, LoadShedder
from repro.traffic.source import (
    DEFAULT_VIDEO_KEYS,
    TrafficConfig,
    TrafficSource,
    TrafficStats,
    percentile,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_PROCESSES",
    "DEFAULT_VIDEO_KEYS",
    "SHED_APOLOGY",
    "STREAM_LENGTHS",
    "AdmissionController",
    "ApologyBudget",
    "ArrivalProcess",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "LoadShedder",
    "QueueThresholdAdmission",
    "TokenBucketAdmission",
    "TraceRate",
    "TrafficConfig",
    "TrafficSource",
    "TrafficStats",
    "empirical_mean_interarrival",
    "make_admission",
    "make_rate_curve",
    "percentile",
    "sample_stream_length",
]
