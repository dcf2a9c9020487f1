"""Baselines the paper compares against (Section 5).

* **State-of-the-art edge** — the compact model (Tiny YOLOv3) runs at the
  edge; responses are fast but inaccurate and never corrected.
* **State-of-the-art cloud** — every frame goes to the cloud where the
  full model (YOLOv3) runs; responses are accurate but slow.
* **Hybrid techniques** (Figure 6c) — pre-processing at the edge before
  cloud detection: frame *compression* and *difference communication*
  (only the delta against a reference frame is sent).  These can be
  applied to the cloud baseline or layered on top of Croesus.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.adaptive import AdaptationConfig
from repro.core.config import CroesusConfig
from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.core.pipeline import LABELS_MESSAGE_BYTES
from repro.core.system import CroesusSystem
from repro.detection.metrics import evaluate_detections
from repro.detection.models import SimulatedDetector
from repro.network.channel import Channel
from repro.sim.rng import RngRegistry
from repro.video.library import make_video

#: Fraction of the original frame size left after compression; matches a
#: typical JPEG re-encode of an already-compressed surveillance frame.
COMPRESSION_RATIO = 0.55

#: Additional reduction from difference (delta) communication on top of
#: compression — consecutive surveillance frames overlap heavily.
DIFFERENCE_RATIO = 0.35

#: Per-frame CPU cost of compressing / differencing at the edge (seconds).
PREPROCESSING_LATENCY = 0.003


@dataclass(frozen=True)
class BaselineResult:
    """Aggregate metrics of one baseline run (same fields the figures use).

    ``num_frames`` and ``transactions`` carry the run's counts forward so
    the experiment layer can normalise a baseline run into the shared
    :class:`~repro.experiments.report.RunReport` schema without re-running
    anything.
    """

    name: str
    video_key: str
    f_score: float
    average_initial_latency: float
    average_final_latency: float
    bandwidth_utilization: float
    average_breakdown: LatencyBreakdown
    num_frames: int = 0
    transactions: int = 0
    #: The run's :meth:`~repro.core.adaptive.AdaptationManager.report_fields`;
    #: None for the static-threshold runs every baseline performs by default.
    adaptation: dict[str, Any] | None = None


def run_edge_only(config: CroesusConfig, video_key: str, num_frames: int = 120) -> BaselineResult:
    """State-of-the-art edge baseline: Tiny YOLOv3 at the edge, no cloud.

    Implemented as a Croesus run with an empty validate interval — no
    frame is ever sent to the cloud, so the client only ever sees the
    edge labels.
    """
    edge_config = config.with_thresholds(0.0, 0.0)
    system = CroesusSystem(edge_config)
    video = make_video(video_key, num_frames=num_frames, seed=config.seed)
    result = system.run(video)
    return _from_run("edge-only", result)


def run_cloud_only(
    config: CroesusConfig,
    video_key: str,
    num_frames: int = 120,
    frame_size_scale: float = 1.0,
    preprocessing_latency: float = 0.0,
    name: str = "cloud-only",
) -> BaselineResult:
    """State-of-the-art cloud baseline: every frame is detected at the cloud.

    The client's frame travels edge → cloud, the full model runs there,
    and the labels come back; there is no fast initial response, so
    initial latency equals final latency.
    """
    rngs = RngRegistry(config.seed)
    video = make_video(video_key, num_frames=num_frames, seed=config.seed)
    cloud_detector = SimulatedDetector(
        config.cloud_profile,
        rngs.stream("cloud-model"),
        latency_scale=config.topology.cloud_machine.compute_scale,
    )
    client_edge = Channel(config.topology.client_edge_link, rngs.stream("client-edge"))
    edge_cloud = Channel(config.topology.edge_cloud_link, rngs.stream("edge-cloud"))
    txn_overhead = config.topology.cloud_machine.txn_overhead * config.operations_per_transaction

    traces: list[FrameTrace] = []
    for frame in video.frames():
        sent_bytes = max(1, int(frame.size_bytes * frame_size_scale))
        edge_transfer = client_edge.send(frame.size_bytes, description=f"frame-{frame.frame_id}")
        uplink = edge_cloud.send(sent_bytes, description=f"frame-{frame.frame_id}")
        downlink = edge_cloud.send(LABELS_MESSAGE_BYTES, description=f"labels-{frame.frame_id}")
        labels, detection_latency = cloud_detector.detect(frame)
        # The paper treats the cloud model's output as the ground truth, so
        # the cloud baseline's accuracy is 1 by construction.
        truth = labels

        latency = LatencyBreakdown(
            edge_transfer=edge_transfer,
            edge_detection=preprocessing_latency,
            initial_txn=0.0,
            cloud_transfer=uplink + downlink,
            cloud_detection=detection_latency,
            final_txn=txn_overhead * max(1, len(labels)),
        )
        accuracy = evaluate_detections(labels, truth, min_overlap=config.match_overlap)
        traces.append(
            FrameTrace.from_labels(
                frame_id=frame.frame_id,
                edge_labels=labels,
                cloud_labels=truth,
                observed_labels=labels,
                sent_to_cloud=True,
                latency=latency,
                accuracy=accuracy,
                transactions_triggered=len(labels),
                frame_bytes_sent=sent_bytes,
            )
        )

    run = RunResult(system_name=name, video_key=video_key, traces=traces)
    # The cloud baseline has no fast initial response: the client waits
    # for the full round trip, so both latencies equal the final latency.
    return BaselineResult(
        name=name,
        video_key=video_key,
        f_score=run.f_score,
        average_initial_latency=run.average_final_latency,
        average_final_latency=run.average_final_latency,
        bandwidth_utilization=1.0,
        average_breakdown=run.average_latency,
        num_frames=run.num_frames,
        transactions=run.total_transactions,
    )


def run_hybrid_cloud(
    config: CroesusConfig,
    video_key: str,
    num_frames: int = 120,
    use_difference: bool = False,
) -> BaselineResult:
    """Cloud baseline augmented with compression (and optionally differencing)."""
    scale = COMPRESSION_RATIO * (DIFFERENCE_RATIO if use_difference else 1.0)
    name = "cloud+compression+difference" if use_difference else "cloud+compression"
    return run_cloud_only(
        config,
        video_key,
        num_frames=num_frames,
        frame_size_scale=scale,
        preprocessing_latency=PREPROCESSING_LATENCY,
        name=name,
    )


def run_croesus(
    config: CroesusConfig,
    video_key: str,
    num_frames: int = 120,
    adaptation: AdaptationConfig | None = None,
) -> BaselineResult:
    """Croesus itself, reported in the same shape as the baselines.

    ``adaptation`` turns on online threshold adaptation; the controller
    accounting then rides along on :attr:`BaselineResult.adaptation`.
    """
    system = CroesusSystem(config, adaptation=adaptation)
    video = make_video(video_key, num_frames=num_frames, seed=config.seed)
    result = _from_run("croesus", system.run(video))
    manager = system.last_adaptation
    return result if manager is None else replace(result, adaptation=manager.report_fields())


def run_hybrid_croesus(
    config: CroesusConfig,
    video_key: str,
    num_frames: int = 120,
    use_difference: bool = False,
) -> BaselineResult:
    """Croesus with compressed (and optionally differenced) uplink frames.

    Figure 6c: the hybrid pre-processing techniques are complementary to
    Croesus — they shrink the edge→cloud transfer of validated frames,
    but the cloud detection latency still dominates.
    """
    scale = COMPRESSION_RATIO * (DIFFERENCE_RATIO if use_difference else 1.0)
    name = "croesus+compression+difference" if use_difference else "croesus+compression"

    system = CroesusSystem(config)
    video = make_video(video_key, num_frames=num_frames, seed=config.seed)
    result = system.run(video)

    adjusted: list[FrameTrace] = []
    for trace in result.traces:
        if not trace.sent_to_cloud:
            adjusted.append(trace)
            continue
        saved_bytes = trace.frame_bytes_sent * (1.0 - scale)
        saved_time = saved_bytes / config.topology.edge_cloud_link.bandwidth_bytes_per_sec
        new_latency = replace(
            trace.latency,
            edge_detection=trace.latency.edge_detection + PREPROCESSING_LATENCY,
            cloud_transfer=max(0.0, trace.latency.cloud_transfer - saved_time),
        )
        adjusted.append(
            replace(
                trace,
                latency=new_latency,
                frame_bytes_sent=int(trace.frame_bytes_sent * scale),
            )
        )

    adjusted_run = RunResult(system_name=name, video_key=video_key, traces=adjusted)
    return _from_run(name, adjusted_run)


def _from_run(name: str, run: RunResult) -> BaselineResult:
    return BaselineResult(
        name=name,
        video_key=run.video_key,
        f_score=run.f_score,
        average_initial_latency=run.average_initial_latency,
        average_final_latency=run.average_final_latency,
        bandwidth_utilization=run.bandwidth_utilization,
        average_breakdown=run.average_latency,
        num_frames=run.num_frames,
        transactions=run.total_transactions,
    )
