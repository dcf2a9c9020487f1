"""One runner for both deployments.

:func:`run` takes a :class:`~repro.experiments.spec.ScenarioSpec` and
returns a :class:`~repro.experiments.report.RunReport`, dispatching to
the single-edge deployment (``CroesusSystem`` via the baseline runners)
or the multi-edge :class:`~repro.cluster.system.ClusterSystem` — two
drivers of the one frame pipeline (:mod:`repro.core.pipeline`) — and
normalising their disjoint result objects into the one shared schema.

Every run builds a fresh system from the spec's seed, so two ``run()``
calls of the same spec produce bit-for-bit identical reports — the
property the golden-summary determinism pins rely on.
"""

from __future__ import annotations

from functools import partial
from statistics import mean
from typing import Callable

from repro.cluster import ClusterSystem, empty_bank_factory, hotspot_bank_factory
from repro.core.baselines import (
    BaselineResult,
    run_cloud_only,
    run_croesus,
    run_edge_only,
    run_hybrid_cloud,
    run_hybrid_croesus,
)
from repro.core.results import LatencyBreakdown
from repro.experiments.report import RunReport
from repro.experiments.spec import (
    ScenarioSpec,
    build_adaptation_config,
    build_cluster_config,
    build_single_config,
    build_traffic_config,
)
from repro.video.library import make_camera_streams, make_uneven_camera_streams
from repro.video.synthetic import SyntheticVideo

#: Single-edge pipeline variants, by spec ``system`` name.
_SINGLE_RUNNERS: dict[str, Callable[..., BaselineResult]] = {
    "croesus": run_croesus,
    "edge-only": run_edge_only,
    "cloud-only": run_cloud_only,
    "cloud-compression": partial(run_hybrid_cloud, use_difference=False),
    "cloud-difference": partial(run_hybrid_cloud, use_difference=True),
    "croesus-compression": partial(run_hybrid_croesus, use_difference=False),
    "croesus-difference": partial(run_hybrid_croesus, use_difference=True),
}


def build_streams(spec: ScenarioSpec) -> list[SyntheticVideo]:
    """The camera streams a cluster scenario runs."""
    if spec.long_frames is None:
        return make_camera_streams(spec.streams, num_frames=spec.frames, seed=spec.seed)
    return make_uneven_camera_streams(
        spec.streams,
        long_frames=spec.long_frames,
        short_frames=spec.frames,
        num_long=spec.num_long,
        seed=spec.seed,
    )


def run(spec: ScenarioSpec) -> RunReport:
    """Execute one scenario and return its normalised report."""
    if spec.deployment == "single":
        return _run_single(spec)
    return _run_cluster(spec)


# -- single edge -------------------------------------------------------------
def _run_single(spec: ScenarioSpec) -> RunReport:
    runner = _SINGLE_RUNNERS[spec.system]
    if spec.threshold_adaptation is not None:
        # Spec validation restricts single-deployment adaptation to the
        # croesus system, the only baseline with a validate interval.
        runner = partial(run_croesus, adaptation=build_adaptation_config(spec))
    result = runner(build_single_config(spec), spec.video, num_frames=spec.frames)
    breakdown = result.average_breakdown
    latency = _latency_ms(breakdown)
    # The baselines report their own initial/final averages (the cloud
    # baseline's initial latency IS its final latency, which the raw
    # breakdown cannot express), so those override the derived sums.
    latency["initial_ms"] = result.average_initial_latency * 1000.0
    latency["final_ms"] = result.average_final_latency * 1000.0
    return RunReport(
        scenario=spec.to_dict(),
        deployment="single",
        system=result.name,
        frames=result.num_frames,
        streams=1,
        f_score=result.f_score,
        bandwidth_utilization=result.bandwidth_utilization,
        latency=latency,
        queue_delay_ms=breakdown.queue_delay * 1000.0,
        cloud_queue_delay_ms=breakdown.cloud_queue_delay * 1000.0,
        transactions=result.transactions,
        transaction_policy=spec.transaction_policy,
        **(result.adaptation or {}),
    )


# -- cluster -----------------------------------------------------------------
def _run_cluster(spec: ScenarioSpec) -> RunReport:
    config = build_cluster_config(spec)
    bank_factory = None
    if spec.workload == "hotspot":
        bank_factory = hotspot_bank_factory(spec.seed, key_range=spec.hot_key_range)
    elif spec.workload == "none":
        # No transactions at all: detections trigger nothing, so frames
        # exercise pure detection + queueing (the scale-stress shape).
        bank_factory = empty_bank_factory
    system = ClusterSystem(config, bank_factory=bank_factory)
    if spec.traffic is None:
        result = system.run(build_streams(spec))
    else:
        result = system.run_open_loop(build_traffic_config(spec))

    latency = _latency_ms(result.average_latency)
    percentiles = result.latency_percentiles
    traffic_summary = result.traffic_summary() or None
    if traffic_summary is not None:
        offered_load = traffic_summary["offered_load_fps"]
        admitted_load = traffic_summary["admitted_load_fps"]
        shed_rate = traffic_summary["shed_rate"]
    else:
        # A closed-loop run admits its whole finite workload.
        offered_load = result.throughput_fps
        admitted_load = result.throughput_fps
        shed_rate = 0.0

    edges = tuple(
        {
            "edge_id": edge.edge_id,
            "machine": edge.machine_name,
            "streams": list(edge.streams),
            "frames_processed": edge.frames_processed,
            "queue_jobs": edge.queue_jobs,
            "utilization": edge.utilization,
            "mean_queue_delay_ms": edge.mean_queue_delay * 1000.0,
            "max_queue_delay_ms": edge.max_queue_delay * 1000.0,
        }
        for edge in result.edges
    )
    migration_events = tuple(
        {
            "time_s": record.time,
            "stream": record.stream,
            "from_edge": record.from_edge,
            "to_edge": record.to_edge,
        }
        for record in result.migrations
    )
    failure_events = tuple(
        {
            "edge": record.edge_id,
            "failed_at_s": record.failed_at,
            "recovered_at_s": record.recovered_at,
            "downtime_ms": record.downtime * 1000.0,
            "recovery_ms": record.recovery_time * 1000.0,
            "records_replayed": record.records_replayed,
            "frames_replayed": record.transactions_replayed,
            "txns_aborted": record.txns_aborted,
            "streams_migrated": record.streams_migrated,
        }
        for record in result.failures
    )
    reshard_events = tuple(
        {
            "time_s": record.time,
            "partition": record.partition_id,
            "from_edge": record.from_edge,
            "to_edge": record.to_edge,
            "keys_copied": record.keys_copied,
            "records_shipped": record.records_shipped,
        }
        for record in result.reshards
    )
    cloud_queue = {
        "validations": result.cloud_validations,
        "queued": result.cloud_queued,
        "mean_delay_ms": result.mean_cloud_queue_delay * 1000.0,
        "max_delay_ms": result.max_cloud_queue_delay * 1000.0,
    }
    flushes = result.batch_flushes
    flushed = sum(transactions for transactions, _ in flushes)
    batch_flushes = (
        {
            "flushes": len(flushes),
            "transactions": flushed,
            "transactions_per_flush": flushed / len(flushes),
            "mean_duration_ms": mean(duration for _, duration in flushes) * 1000.0,
        }
        if flushes
        else None
    )
    replication = result.replication
    geo = result.geo

    return RunReport(
        scenario=spec.to_dict(),
        deployment="cluster",
        system="croesus-cluster",
        frames=result.num_frames,
        streams=len(result.per_stream),
        f_score=result.f_score,
        bandwidth_utilization=result.bandwidth_utilization,
        latency=latency,
        throughput_fps=result.throughput_fps,
        queue_delay_ms=result.mean_queue_delay * 1000.0,
        cloud_queue_delay_ms=result.mean_cloud_queue_delay * 1000.0,
        transactions=result.total_transactions,
        aborts=result.stats.aborts,
        abort_rate=result.stats.abort_rate,
        cross_partition_txns=result.cross_edge_transactions,
        cross_partition_fraction=result.cross_partition_fraction,
        migrations=len(result.migrations),
        makespan_s=result.makespan,
        transaction_policy=spec.transaction_policy,
        coordinator_round_trips=result.policy_stats.coordinator_round_trips,
        coordinator_batches=result.policy_stats.commit_batches,
        overlap_saved_ms=result.policy_stats.overlap_saved_s * 1000.0,
        downtime_ms=result.downtime_s * 1000.0,
        recovery_time_ms=result.recovery_time_s * 1000.0,
        frames_replayed=result.transactions_replayed,
        txns_aborted_by_failure=result.txns_aborted_by_failure,
        checkpoints=result.checkpoints,
        offered_load_fps=offered_load,
        admitted_load_fps=admitted_load,
        goodput_fps=result.goodput_fps,
        shed_rate=shed_rate,
        p50_latency_ms=percentiles["p50_ms"],
        p95_latency_ms=percentiles["p95_ms"],
        p99_latency_ms=percentiles["p99_ms"],
        replication_lag_ms=(
            replication["replication_lag_ms"] if replication is not None else 0.0
        ),
        promotions=len(replication["promotion_events"]) if replication is not None else 0,
        log_records_shipped=(
            replication["log_records_shipped"] if replication is not None else 0
        ),
        log_flushes=result.policy_stats.log_flushes,
        cross_region_txn_fraction=(
            geo["cross_region_txn_fraction"] if geo is not None else 0.0
        ),
        wan_round_trips_per_txn=(
            geo["wan_round_trips_per_txn"] if geo is not None else 0.0
        ),
        edges=edges,
        migration_events=migration_events,
        failure_events=failure_events,
        reshard_events=reshard_events,
        cloud_queue=cloud_queue,
        batch_flushes=batch_flushes,
        traffic=traffic_summary,
        replication=replication,
        geo=geo,
        **(result.adaptation or {}),
    )


# -- shared ------------------------------------------------------------------
def _latency_ms(breakdown: LatencyBreakdown) -> dict[str, float]:
    """Millisecond latency dict of the shared schema, from one breakdown."""
    components = {
        f"{name}_ms": value * 1000.0 for name, value in breakdown.to_dict().items()
    }
    components["initial_ms"] = breakdown.initial_latency * 1000.0
    components["final_ms"] = breakdown.final_latency * 1000.0
    return components
