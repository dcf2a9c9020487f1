"""Metric definitions: names, units, directions, bounds, and how the
report-derived ones are read out of a ``RunReport.to_dict()``.

Host metrics are measured in host time around the program (times scaled
to the reference host speed by the calibration kernel); ``sim_*``,
``stage.*`` and the per-layer report counters are *simulated* quantities
the program reports and repeat exactly for a given workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Mapping

#: End-to-end metrics, in print order.  ``bound`` is the share of the
#: baseline median by which the metric may worsen before it counts as a
#: regression.  ``host`` metrics are noisy and compared as medians against
#: the baseline's own quartile distance; the others are seed-deterministic.
#: A metric that is not defined ``everywhere`` is omitted on the workloads
#: whose ``omit`` list names it (BENCHMARK.json carries those per layer,
#: because its end-to-end metrics must exist, non-zero, on every workload).
END_TO_END: tuple[dict[str, Any], ...] = (
    {"name": "us_per_frame", "unit": "us", "better": "lower", "bound": 0.10, "host": True, "everywhere": True},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10, "host": True, "everywhere": True},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25, "host": True, "everywhere": True},
    {"name": "sim_initial_ms", "unit": "sim_ms", "better": "lower", "bound": 0.01, "host": False, "everywhere": True},
    {"name": "sim_final_ms", "unit": "sim_ms", "better": "lower", "bound": 0.01, "host": False, "everywhere": True},
    {"name": "sim_f_score", "unit": "ratio", "better": "higher", "bound": 0.01, "host": False, "everywhere": False},
    {"name": "sim_p99_ms", "unit": "sim_ms", "better": "lower", "bound": 0.01, "host": False, "everywhere": False},
    {"name": "sim_goodput_fps", "unit": "1/sim_s", "better": "higher", "bound": 0.01, "host": False, "everywhere": False},
)
END_TO_END_BY_NAME = {metric["name"]: metric for metric in END_TO_END}

#: Layers are the packages of ``src/repro``; ``other`` is what no ``repro``
#: frame called.  A package the reducer has never seen becomes a new layer.
LAYERS = (
    "sim", "cluster", "traffic", "network", "analysis", "video", "detection",
    "core", "workloads", "transactions", "storage", "geo", "experiments", "other",
)
TRACED_SUFFIXES = {"self_share": "share", "calls_per_frame": "count", "entries_per_frame": "count"}

#: Per-layer counters read from the report (all simulated, all exact).
REPORT_LAYER_UNITS = {
    "transactions.txns_per_frame": "count",
    "transactions.abort_rate": "ratio",
    "transactions.cross_partition_fraction": "ratio",
    "transactions.coordinator_round_trips_per_txn": "count",
    "storage.log_flushes_per_txn": "count",
    "storage.checkpoints": "count",
    "cluster.max_edge_utilization": "ratio",
    "cluster.log_records_shipped_per_txn": "count",
    "cluster.replication_lag_ms": "sim_ms",
    "cluster.downtime_ms": "sim_ms",
    "cluster.recovery_time_ms": "sim_ms",
    "cluster.txns_aborted_by_failure": "count",
    "cluster.migrations": "count",
    "geo.cross_region_txn_fraction": "ratio",
    "geo.wan_round_trips_per_txn": "count",
    "core.bandwidth_utilization": "ratio",
    "core.threshold_updates": "count",
    "core.tuner_evaluations": "count",
    "core.tuner_frame_rescores": "count",
    "traffic.offered_load_fps": "1/sim_s",
    "traffic.admitted_fraction": "ratio",
    "traffic.shed_rate": "ratio",
}
#: Mean simulated milliseconds a frame spends in each pipeline stage.
STAGES = (
    "edge_transfer_ms", "edge_detection_ms", "initial_txn_ms", "cloud_transfer_ms",
    "cloud_detection_ms", "final_txn_ms", "queue_delay_ms", "final_queue_delay_ms",
    "cloud_queue_delay_ms", "commit_protocol_ms", "commit_overlap_saved_ms",
)
RUN_LEVEL_UNITS = {
    "run.py_calls_per_frame": "count",
    "run.trace_overhead_ratio": "ratio",
    "run.wall_iqr_frac": "ratio",
    "host.calibration_ms": "ms",
    "host.raw_us_per_frame": "us",
}


#: Every per-layer metric name the benchmark defines -> its unit.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{layer}.{suffix}": unit for layer in LAYERS for suffix, unit in TRACED_SUFFIXES.items()},
    **REPORT_LAYER_UNITS,
    **{f"stage.{stage}": "sim_ms" for stage in STAGES},
    **RUN_LEVEL_UNITS,
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, including one of a layer first seen in a trace."""
    return PER_LAYER_UNITS.get(name) or TRACED_SUFFIXES[name.rpartition(".")[2]]


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_end_to_end(report: Mapping[str, Any], omit: list[str]) -> dict[str, float]:
    """The simulated end-to-end metrics that apply to this workload."""
    values = {
        "sim_initial_ms": report["latency"]["initial_ms"],
        "sim_final_ms": report["latency"]["final_ms"],
        "sim_f_score": report["f_score"],
        "sim_p99_ms": report["p99_latency_ms"],
        "sim_goodput_fps": report["goodput_fps"],
    }
    return {name: value for name, value in values.items() if name not in omit}


def report_layer_metrics(report: Mapping[str, Any]) -> dict[str, float]:
    """Per-layer counters and per-stage modelled time, from the report."""
    txns = report["transactions"]
    values = {
        "transactions.txns_per_frame": _per(txns, report["frames"]),
        "transactions.abort_rate": report["abort_rate"],
        "transactions.cross_partition_fraction": report["cross_partition_fraction"],
        "transactions.coordinator_round_trips_per_txn": _per(
            report["coordinator_round_trips"], txns
        ),
        "storage.log_flushes_per_txn": _per(report["log_flushes"], txns),
        "storage.checkpoints": report["checkpoints"],
        "cluster.max_edge_utilization": max(
            (edge["utilization"] for edge in report["edges"]), default=0.0
        ),
        "cluster.log_records_shipped_per_txn": _per(report["log_records_shipped"], txns),
        "cluster.replication_lag_ms": report["replication_lag_ms"],
        "cluster.downtime_ms": report["downtime_ms"],
        "cluster.recovery_time_ms": report["recovery_time_ms"],
        "cluster.txns_aborted_by_failure": report["txns_aborted_by_failure"],
        "cluster.migrations": report["migrations"],
        "geo.cross_region_txn_fraction": report["cross_region_txn_fraction"],
        "geo.wan_round_trips_per_txn": report["wan_round_trips_per_txn"],
        "core.bandwidth_utilization": report["bandwidth_utilization"],
        "core.threshold_updates": report["threshold_updates"],
        "core.tuner_evaluations": report["tuner_evaluations"],
        "core.tuner_frame_rescores": report["tuner_frame_rescores"],
        "traffic.offered_load_fps": report["offered_load_fps"],
        "traffic.admitted_fraction": _per(
            report["admitted_load_fps"], report["offered_load_fps"]
        ),
        "traffic.shed_rate": report["shed_rate"],
    }
    values.update({f"stage.{stage}": report["latency"][stage] for stage in STAGES})
    return values


def report_digest(report: Mapping[str, Any]) -> str:
    """sha256 of the sorted-keys report JSON (the determinism fingerprint)."""
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def conservation_problem(report: Mapping[str, Any], entry: Mapping[str, Any], spec: Mapping[str, Any]) -> str | None:
    """Why the report's frame accounting is wrong, or None if it holds."""
    if entry["loop"] == "closed":
        expected = report["streams"] * spec["frames"]
        if report["frames"] != expected:
            return f"closed loop: {report['frames']} frames, expected {expected}"
        return None
    if report["admitted_load_fps"] > report["offered_load_fps"]:
        return "open loop: admitted load exceeds offered load"
    if not report["goodput_fps"] > 0:
        return "open loop: goodput is not positive"
    return None


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and n of a timing sample."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
