"""Threshold tuning off a score table, and online per-stream adaptation.

Two halves.  Offline: brute force over the evaluator's incrementally
maintained score table finds the exact grid optimum with an order of
magnitude fewer full-frame label matches (``frame_rescores``) than the
``evaluations × frames`` a per-pair re-match of every frame would pay.
Online: the same evaluator runs *inside* a cluster simulation,
periodically retuning each camera stream's thresholds from its
validated history, and is compared against the static-threshold and
feedback-controller runs.

Usage::

    python examples/adaptive_thresholds.py [video_key] [target_f_score]
"""

from __future__ import annotations

import sys

from repro import (
    CroesusConfig,
    ThresholdEvaluator,
    brute_force_search,
    get_sweep,
)
from repro.analysis.tables import format_table


def offline(video_key: str, target: float) -> None:
    config = CroesusConfig(seed=5)
    print(f"Profiling video {video_key!r} (one pass of edge + cloud detection)...")
    evaluator = ThresholdEvaluator.profile(config, video_key, num_frames=100)

    brute = brute_force_search(evaluator, target_f_score=target, step=0.05)
    per_pair = brute.evaluations * evaluator.num_frames

    print(f"\nTarget F-score µ = {target}, grid step 0.05:")
    print(format_table(
        ["method", "(θL, θU)", "BU", "F-score", "evaluations", "frame rescores"],
        [["brute force", str(brute.thresholds), brute.best.bandwidth_utilization,
          brute.best.f_score, brute.evaluations, brute.frame_rescores]],
    ))
    reduction = per_pair / max(brute.frame_rescores, 1)
    print(
        f"\nThe grid optimum at {reduction:.1f}x fewer full-frame label matches than "
        f"a per-pair re-match ({per_pair}) — cheap enough to re-run inside the "
        "serving loop."
    )


def online() -> None:
    print("\nRunning the static-vs-adaptive cluster sweep (3 seeded cells)...")
    result = get_sweep("static-vs-adaptive").run()
    rows = []
    for cell in result.cells:
        report = cell.report
        mode = cell.assignment["threshold_adaptation"] or "static"
        rows.append(
            [mode, report.f_score, report.bandwidth_utilization,
             report.threshold_updates, report.tuner_frame_rescores]
        )
    print(format_table(
        ["adaptation", "F-score", "BU", "threshold updates", "frame rescores"], rows
    ))

    retune = next(
        cell.report for cell in result.cells
        if cell.assignment["threshold_adaptation"] == "retune"
    )
    adaptation = retune.adaptation
    print(
        f"\nretune tuner work: {retune.tuner_evaluations} pair evaluations at "
        f"{retune.tuner_frame_rescores} frame rescores (a per-pair re-match "
        f"would have paid {adaptation['tuner_grid_rescores']})."
    )
    print("final per-stream thresholds after drift:")
    for stream, (lower, upper) in sorted(adaptation["stream_thresholds"].items()):
        print(f"  {stream}: ({lower:g}, {upper:g})")


def main(video_key: str = "v2", target: float = 0.85) -> None:
    offline(video_key, target)
    online()


if __name__ == "__main__":
    video = sys.argv[1] if len(sys.argv) > 1 else "v2"
    target = float(sys.argv[2]) if len(sys.argv) > 2 else 0.85
    main(video, target)
