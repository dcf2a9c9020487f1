"""The shared result schema of every experiment run.

Both deployments — a single-edge baseline run and a multi-edge cluster
run — are normalised into one :class:`RunReport`, so the CLI's
``--json`` output, sweep cells, ``bench/``'s workloads and the
programmatic API all speak the same schema: shared metric names
(``f_score``, the latency breakdown, ``throughput_fps``, queue/cloud
delays, aborts, migrations) regardless of where the numbers came from.
:func:`validate_report` is the schema's executable contract; CI pipes
the CLI's JSON through it on every commit.  Seeded runs are
deterministic, so a report is gated by its digest (sha256 over the
sorted-keys :meth:`RunReport.to_dict`): ``tests/test_scenario_digests.py``
pins every registered cluster scenario and sweep cell that way.

Metrics a deployment cannot produce are reported as their zero value
rather than omitted (a single-edge run has no makespan, queueing, 2PC
aborts, or migrations), so consumers never branch on key presence.

A report key is declared once, as a :class:`RunReport` dataclass field:
``to_dict``, ``from_dict``, :data:`REQUIRED_KEYS` and the type checks of
:func:`validate_report` are all read off ``fields(RunReport)`` and the
field annotations (``| None`` marks a nullable block).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from types import NoneType, UnionType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from repro.core.results import LatencyBreakdown
from repro.experiments.spec import ScenarioSpec

#: Keys of the per-frame latency breakdown, all in milliseconds: the two
#: response latencies plus one key per :class:`LatencyBreakdown` component.
LATENCY_KEYS = (
    "initial_ms",
    "final_ms",
    *(f"{component.name}_ms" for component in fields(LatencyBreakdown)),
)

#: Keys of each entry in a cluster report's ``edges`` list.
EDGE_KEYS = (
    "edge_id",
    "machine",
    "streams",
    "frames_processed",
    "queue_jobs",
    "utilization",
    "mean_queue_delay_ms",
    "max_queue_delay_ms",
)


class ReportSchemaError(ValueError):
    """A payload does not satisfy the :class:`RunReport` schema."""


@dataclass(frozen=True)
class RunReport:
    """Normalised outcome of running one :class:`ScenarioSpec`.

    ``scenario`` embeds the originating spec (as ``to_dict()`` output),
    making every report self-describing: a stored JSON report can be
    re-run bit-for-bit via ``run(ScenarioSpec.from_dict(report["scenario"]))``.
    """

    scenario: dict[str, Any]
    deployment: str
    system: str
    frames: int
    streams: int
    f_score: float
    bandwidth_utilization: float
    latency: dict[str, float]
    throughput_fps: float = 0.0
    queue_delay_ms: float = 0.0
    cloud_queue_delay_ms: float = 0.0
    transactions: int = 0
    aborts: int = 0
    abort_rate: float = 0.0
    cross_partition_txns: int = 0
    cross_partition_fraction: float = 0.0
    migrations: int = 0
    makespan_s: float = 0.0
    transaction_policy: str = "immediate-2pc"
    coordinator_round_trips: int = 0
    coordinator_batches: int = 0
    overlap_saved_ms: float = 0.0
    downtime_ms: float = 0.0
    recovery_time_ms: float = 0.0
    frames_replayed: int = 0
    txns_aborted_by_failure: int = 0
    checkpoints: int = 0
    offered_load_fps: float = 0.0
    admitted_load_fps: float = 0.0
    goodput_fps: float = 0.0
    shed_rate: float = 0.0
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    replication_lag_ms: float = 0.0
    promotions: int = 0
    log_records_shipped: int = 0
    log_flushes: int = 0
    cross_region_txn_fraction: float = 0.0
    wan_round_trips_per_txn: float = 0.0
    threshold_updates: int = 0
    tuner_evaluations: int = 0
    tuner_frame_rescores: int = 0
    edges: tuple[dict[str, Any], ...] = ()
    migration_events: tuple[dict[str, Any], ...] = ()
    failure_events: tuple[dict[str, Any], ...] = ()
    reshard_events: tuple[dict[str, Any], ...] = ()
    cloud_queue: dict[str, float] | None = None
    batch_flushes: dict[str, float] | None = None
    traffic: dict[str, float] | None = None
    #: Log-shipping/failover detail of a replicated cluster run (None at
    #: replication factor 1, like ``batch_flushes`` without batching).
    replication: dict[str, Any] | None = None
    #: WAN/commit-variant detail of a geo run (None at ``regions == 1``,
    #: following the ``replication`` pattern).
    geo: dict[str, Any] | None = None
    #: Online-adaptation detail (mode, controller config, tuner grid-cost
    #: baseline, per-stream final thresholds).  None for static-threshold
    #: runs, following the ``replication``/``geo`` pattern.
    adaptation: dict[str, Any] | None = None

    # -- derived -------------------------------------------------------------
    @property
    def spec(self) -> ScenarioSpec:
        """The originating scenario, rebuilt from the embedded dict."""
        return ScenarioSpec.from_dict(self.scenario)

    @property
    def max_utilization(self) -> float:
        """Utilization of the busiest edge (0.0 without edge metrics)."""
        return max((edge["utilization"] for edge in self.edges), default=0.0)

    @property
    def round_trips_per_cross_partition_txn(self) -> float:
        """Mean coordinator round trips per cross-partition transaction —
        the metric the ``txn-policies`` sweep compares across policies."""
        if not self.cross_partition_txns:
            return 0.0
        return self.coordinator_round_trips / self.cross_partition_txns

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON dictionary: one key per dataclass field, in field order."""
        return {
            report_field.name: _copied(getattr(self, report_field.name), list)
            for report_field in fields(self)
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Deterministic JSON: sorted keys, no whitespace drift."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunReport":
        """Rebuild a report from validated :meth:`to_dict` output."""
        validate_report(payload)
        return cls(
            **{
                report_field.name: _copied(payload[report_field.name], tuple)
                for report_field in fields(cls)
                if report_field.name in payload
            }
        )


def _copied(value: Any, sequence: type) -> Any:
    """Copy one field value between its dataclass and JSON shapes: blocks
    become fresh dicts, event lists a ``sequence`` (tuple ⇄ list) of them."""
    if isinstance(value, Mapping):
        return dict(value)
    if isinstance(value, (list, tuple)):
        return sequence(dict(item) for item in value)
    return value


def _json_type(hint: Any) -> tuple[type | tuple[type, ...], bool]:
    """``(JSON type, nullable)`` of one annotated :class:`RunReport` field."""
    options = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    (kind,) = (get_origin(option) or option for option in options if option is not NoneType)
    return {float: (int, float), tuple: list}.get(kind, kind), NoneType in options


#: The schema, read off the dataclass: field name -> (JSON type, nullable).
_SCHEMA = {name: _json_type(hint) for name, hint in get_type_hints(RunReport).items()}

#: Top-level keys every report must carry, with their required types (the
#: fields not annotated ``| None``; those blocks may be absent or null).
REQUIRED_KEYS: dict[str, type | tuple[type, ...]] = {
    name: kind for name, (kind, nullable) in _SCHEMA.items() if not nullable
}


def validate_report(payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """Check a payload against the report schema; return it unchanged.

    Raises :class:`ReportSchemaError` naming every violation at once, so
    a failing CI schema check reports the full damage in one run.
    """
    problems: list[str] = []
    if not isinstance(payload, Mapping):
        raise ReportSchemaError(f"report must be a mapping, got {type(payload).__name__}")
    for key, (expected, nullable) in _SCHEMA.items():
        if key not in payload:
            if not nullable:
                problems.append(f"missing required key {key!r}")
        elif nullable and payload[key] is None:
            continue
        elif not isinstance(payload[key], expected) or isinstance(payload[key], bool):
            problems.append(
                f"key {key!r} must be {expected}{' or None' if nullable else ''}, "
                f"got {type(payload[key]).__name__}"
            )
    if isinstance(payload.get("latency"), dict):
        for key in LATENCY_KEYS:
            if key not in payload["latency"]:
                problems.append(f"latency breakdown is missing {key!r}")
    if isinstance(payload.get("edges"), list):
        for index, edge in enumerate(payload["edges"]):
            if not isinstance(edge, Mapping):
                problems.append(f"edges[{index}] must be a mapping")
                continue
            for key in EDGE_KEYS:
                if key not in edge:
                    problems.append(f"edges[{index}] is missing {key!r}")
    if isinstance(payload.get("scenario"), Mapping):
        try:
            ScenarioSpec.from_dict(payload["scenario"])
        except (ValueError, TypeError) as error:
            problems.append(f"embedded scenario does not parse: {error}")
    if problems:
        raise ReportSchemaError("; ".join(problems))
    return payload
