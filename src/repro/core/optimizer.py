"""Threshold optimisation (paper Section 3.4, Equations 1-2).

The optimisation problem: given a target minimum F-score ``µ``, find the
threshold pair ``(θL, θU)`` that minimises bandwidth utilisation
``δ(θL, θU)`` subject to ``f(θL, θU) ≥ µ``.

Evaluating a threshold pair does not require re-running the detectors:
the edge and cloud labels of every frame are fixed, only the
send/keep/discard decision changes.  The :class:`ThresholdEvaluator`
therefore profiles a video once (one pass of edge + cloud detection) and
then scores any pair in microseconds, which is what both search
strategies — exhaustive grid search and the paper's faster gradient-step
search — are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import CroesusConfig
from repro.core.results import FrameTrace, LatencyBreakdown, RunResult
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.detection.labels import LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport, aggregate_reports
from repro.video.library import make_video

if TYPE_CHECKING:
    from repro.core.incremental import IncrementalThresholdScorer


@dataclass(slots=True, unsafe_hash=True)
class ThresholdScore:
    """Metrics of one threshold pair on a profiled video (immutable by
    convention, not frozen: a retune builds one per grid pair)."""

    lower: float
    upper: float
    bandwidth_utilization: float
    f_score: float
    average_final_latency: float
    average_initial_latency: float

    @property
    def pair(self) -> tuple[float, float]:
        return (self.lower, self.upper)


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a threshold search."""

    best: ThresholdScore
    evaluations: int
    target_f_score: float
    feasible: bool
    scores: tuple[ThresholdScore, ...] = field(default_factory=tuple)
    frame_rescores: int = 0

    @property
    def thresholds(self) -> tuple[float, float]:
        return self.best.pair


class ThresholdEvaluator:
    """Scores threshold pairs against a profiled video.

    Parameters
    ----------
    traces:
        Per-frame traces from a *profiling* run, i.e. a run in which the
        cloud labels and cloud-side latencies were recorded for every
        frame (``CroesusSystem`` always records them).
    match_overlap:
        Overlap fraction for label matching / scoring.
    """

    def __init__(self, traces: list[FrameTrace], match_overlap: float = 0.10) -> None:
        if not traces:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        self._traces = list(traces)
        self._match_overlap = match_overlap
        self._cache: dict[tuple[float, float], ThresholdScore] = {}
        self._profiled: list[tuple[LabelSet, FrameOverlaps]] | None = None
        self._evaluations = 0
        self._frame_rescores = 0

    @classmethod
    def profile(
        cls,
        config: CroesusConfig,
        video_key: str,
        num_frames: int = 120,
        seed: int | None = None,
    ) -> "ThresholdEvaluator":
        """Run one profiling pass of ``video_key`` and build an evaluator.

        The profiling run validates every frame (θL=0, θU≈1) so that
        cloud-side latencies are recorded everywhere.
        """
        profiling_config = config.with_thresholds(0.0, 0.999)
        system = CroesusSystem(profiling_config)
        video = make_video(video_key, num_frames=num_frames, seed=seed if seed is not None else config.seed)
        result = system.run(video)
        return cls(result.traces, match_overlap=config.match_overlap)

    @property
    def num_frames(self) -> int:
        return len(self._traces)

    @property
    def traces(self) -> list[FrameTrace]:
        """The profiled frame traces this evaluator scores against."""
        return self._traces

    @property
    def match_overlap(self) -> float:
        return self._match_overlap

    def profiled_frames(self) -> list[tuple[LabelSet, FrameOverlaps]]:
        """Each trace's edge labels and ``(edge, cloud)`` overlap table.

        Neither depends on the pair scored, so each trace's two label sets
        are rendered, and its table built, once — on the first call.
        """
        if self._profiled is None:
            self._profiled = []
            for trace in self._traces:
                edge = trace.edge_labels
                overlaps = FrameOverlaps(
                    edge.detections, trace.cloud_labels.detections, self._match_overlap
                )
                self._profiled.append((edge, overlaps))
        return self._profiled

    @property
    def evaluations(self) -> int:
        """Threshold pairs actually scored (cache hits do no work)."""
        return self._evaluations

    @property
    def frame_rescores(self) -> int:
        """Full-frame label-match operations performed so far.

        Every cache-missed :meth:`evaluate` re-matches all profiled
        frames, so this grows by ``num_frames`` per scored pair — the
        cost model the incremental scorer
        (:class:`repro.core.incremental.IncrementalThresholdScorer`)
        beats by an order of magnitude.
        """
        return self._frame_rescores

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        """Score one ``(θL, θU)`` pair, rounded to 6 places (cached)."""
        # The rounded pair is what is cached *and* what is scored: two
        # spellings of one key must not answer for each other's thresholds.
        lower, upper = key = (round(lower, 6), round(upper, 6))
        if key in self._cache:
            return self._cache[key]

        policy = ThresholdPolicy(lower, upper)
        reports = []
        sent_count = 0
        final_latencies = []
        initial_latencies = []
        self._evaluations += 1

        for trace, (edge, overlaps) in zip(self._traces, self.profiled_frames()):
            rows, sent = policy.partition(edge)
            self._frame_rescores += 1
            reports.append(AccuracyReport(*overlaps.client_view(rows, sent)[1]))

            latency = trace.latency
            initial_latencies.append(latency.initial_latency)
            if sent:
                sent_count += 1
                final_latencies.append(latency.final_latency)
            else:
                final_latencies.append(latency.initial_latency + latency.final_txn)

        accuracy = aggregate_reports(reports)
        score = ThresholdScore(
            lower=lower,
            upper=upper,
            bandwidth_utilization=sent_count / len(self._traces),
            f_score=accuracy.f_score,
            average_final_latency=sum(final_latencies) / len(final_latencies),
            average_initial_latency=sum(initial_latencies) / len(initial_latencies),
        )
        self._cache[key] = score
        return score

    def evaluate_grid(self, step: float = 0.1) -> list[ThresholdScore]:
        """Score every pair on a regular grid with spacing ``step``."""
        values = _grid(step)
        return [
            self.evaluate(lower, upper)
            for lower in values
            for upper in values
            if lower <= upper
        ]


def brute_force_search(
    evaluator: ThresholdEvaluator | IncrementalThresholdScorer,
    target_f_score: float,
    step: float = 0.1,
) -> OptimizationResult:
    """Exhaustively search the threshold grid (the paper's brute-force mode).

    Among pairs meeting the F-score floor, the pair with the lowest
    bandwidth utilisation wins; latency breaks ties.  When no pair is
    feasible, the highest-F-score pair is returned with ``feasible=False``.
    Only ``evaluate_grid`` and ``frame_rescores`` are used, so the
    incremental scorer's grid table is searched by the same code.
    """
    rescores_before = evaluator.frame_rescores
    scores = evaluator.evaluate_grid(step=step)
    best = _select_best(scores, target_f_score)
    feasible = best.f_score >= target_f_score
    return OptimizationResult(
        best=best,
        evaluations=len(scores),
        target_f_score=target_f_score,
        feasible=feasible,
        scores=tuple(scores),
        frame_rescores=evaluator.frame_rescores - rescores_before,
    )


def gradient_step_search(
    evaluator: ThresholdEvaluator,
    target_f_score: float,
    step: float = 0.1,
    max_iterations: int = 25,
) -> OptimizationResult:
    """Local gradient-step search (the paper's faster optimiser).

    Starting from a wide validate interval (small θL, large θU — feasible
    whenever any pair is), the search repeatedly takes the neighbouring
    pair (one ``step`` move of either threshold) that reduces bandwidth
    utilisation the most while keeping the F-score above the target.  It
    stops at a local optimum, typically after evaluating a fraction of
    the grid the brute-force search scans.
    """
    values = _grid(step)
    lower, upper = values[0], values[-1]
    rescores_before = evaluator.frame_rescores
    # Pairs this search examined, in visit order.  The evaluator's own
    # cache dedupes the actual scoring work — no shadow memo needed.
    examined: dict[tuple[float, float], ThresholdScore] = {}

    def score_of(pair_lower: float, pair_upper: float) -> ThresholdScore:
        key = (round(pair_lower, 6), round(pair_upper, 6))
        if key not in examined:
            examined[key] = evaluator.evaluate(*key)
        return examined[key]

    current = score_of(lower, upper)

    def is_improvement(score: ThresholdScore) -> bool:
        """A move is accepted when it stays feasible and either lowers BU
        or keeps BU while narrowing the validate interval (so the search
        keeps making progress across BU plateaus)."""
        if score.f_score < target_f_score:
            return False
        if score.bandwidth_utilization < current.bandwidth_utilization:
            return True
        if score.bandwidth_utilization > current.bandwidth_utilization:
            return False
        current_width = current.upper - current.lower
        return (score.upper - score.lower) < current_width

    for _ in range(max_iterations):
        neighbors = []
        for delta_lower, delta_upper in (
            (step, 0.0),
            (0.0, -step),
            (step, -step),
            (-step, 0.0),
            (0.0, step),
        ):
            candidate_lower = round(current.lower + delta_lower, 6)
            candidate_upper = round(current.upper + delta_upper, 6)
            if not 0.0 <= candidate_lower <= candidate_upper <= values[-1]:
                continue
            neighbors.append(score_of(candidate_lower, candidate_upper))

        if current.f_score < target_f_score:
            # Not yet feasible: move towards higher F-score instead.
            improvements = [s for s in neighbors if s.f_score > current.f_score]
        else:
            improvements = [s for s in neighbors if is_improvement(s)]
        if not improvements:
            break
        current = min(
            improvements,
            key=lambda s: (s.bandwidth_utilization, s.upper - s.lower, -s.f_score),
        )

    feasible = current.f_score >= target_f_score
    return OptimizationResult(
        best=current,
        evaluations=len(examined),
        target_f_score=target_f_score,
        feasible=feasible,
        scores=tuple(examined.values()),
        frame_rescores=evaluator.frame_rescores - rescores_before,
    )


def select_pair(
    f_scores: np.ndarray,
    bandwidths: np.ndarray,
    final_latency: Callable[[int], float],
    target_f_score: float,
) -> int:
    """The search's selection rule, over pairs listed in grid order.

    Of the pairs meeting the F-score floor, the least bandwidth wins
    (``bandwidths`` may be utilisations or the sent counts behind them —
    any measure that orders the pairs alike); ``final_latency(pair)``
    breaks ties and is asked only for the pairs tied on that minimum,
    then the higher F-score, then grid order.  When no pair is feasible:
    the first pair of the highest F-score.
    """
    feasible = np.flatnonzero(f_scores >= target_f_score)
    if not feasible.size:
        return int(f_scores.argmax())
    feasible_bandwidths = bandwidths[feasible]
    tied = feasible[feasible_bandwidths == feasible_bandwidths.min()]
    return min(tied.tolist(), key=lambda pair: (final_latency(pair), -f_scores[pair]))


def _select_best(scores: list[ThresholdScore], target_f_score: float) -> ThresholdScore:
    return scores[
        select_pair(
            np.array([score.f_score for score in scores]),
            np.array([score.bandwidth_utilization for score in scores]),
            lambda pair: scores[pair].average_final_latency,
            target_f_score,
        )
    ]


def _grid(step: float) -> list[float]:
    if not 0.0 < step <= 0.5:
        raise ValueError("grid step must be in (0, 0.5]")
    values = []
    value = 0.0
    while value < 0.95 + 1e-9:
        values.append(round(value, 6))
        value += step
    return values
