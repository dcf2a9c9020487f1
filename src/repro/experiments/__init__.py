"""Declarative experiment layer: one front door for both deployments.

The paper's evaluation is a grid of *scenarios* — videos x thresholds x
safety levels x deployments.  This package makes that grid first-class:

* :class:`ScenarioSpec` — a frozen, JSON-round-trippable description of
  one experiment (deployment, workload, thresholds, router, seed, ...);
* :func:`run` — the single runner, dispatching a spec to the single-edge
  pipeline or the multi-edge cluster and normalising both into one
  :class:`RunReport` schema (``to_json()``, validated by
  :func:`validate_report`);
* :class:`Sweep` — cross products of any spec fields as axes, with O(1)
  point lookup, series, and heatmap accessors on the result;
* a scenario registry (:func:`register_scenario` /
  :func:`register_sweep`) pre-populated with the paper's figure/table
  scenarios and the cluster sweeps.

Quick example::

    from repro.experiments import ScenarioSpec, Sweep, run

    report = run(ScenarioSpec(deployment="cluster", num_edges=4, streams=8))
    print(report.to_json())

    scaleout = Sweep(axis="num_edges", values=[1, 2, 4, 8]).run()
    print(scaleout.series("throughput_fps", axis="num_edges"))
"""

from repro.experiments.report import (
    LATENCY_KEYS,
    REQUIRED_KEYS,
    ReportSchemaError,
    RunReport,
    validate_report,
)
from repro.experiments.registry import (
    RegisteredScenario,
    RegisteredSweep,
    get_scenario,
    get_sweep,
    list_scenarios,
    list_sweeps,
    register_scenario,
    register_sweep,
)
from repro.experiments.runner import build_streams, run
from repro.experiments.spec import (
    CLUSTER_FIELDS,
    CONSISTENCY_LEVELS,
    DEPLOYMENTS,
    SINGLE_SYSTEMS,
    WORKLOADS,
    ScenarioSpec,
    build_cluster_config,
    build_single_config,
    build_traffic_config,
    spec_field_names,
)
from repro.experiments.sweep import Sweep, SweepAxis, SweepCell, SweepResult

#: Collision-free alias for ``from repro import run_scenario`` (the bare
#: name ``run`` is too generic to re-export at the top level).
run_scenario = run

__all__ = [
    "ScenarioSpec",
    "RunReport",
    "run",
    "run_scenario",
    "Sweep",
    "SweepAxis",
    "SweepCell",
    "SweepResult",
    "validate_report",
    "ReportSchemaError",
    "register_scenario",
    "register_sweep",
    "get_scenario",
    "get_sweep",
    "list_scenarios",
    "list_sweeps",
    "RegisteredScenario",
    "RegisteredSweep",
    "build_single_config",
    "build_cluster_config",
    "build_streams",
    "build_traffic_config",
    "spec_field_names",
    "DEPLOYMENTS",
    "SINGLE_SYSTEMS",
    "WORKLOADS",
    "CONSISTENCY_LEVELS",
    "CLUSTER_FIELDS",
    "LATENCY_KEYS",
    "REQUIRED_KEYS",
]
