"""Threshold optimisation (paper Section 3.4, Equations 1-2).

The optimisation problem: given a target minimum F-score ``µ``, find the
threshold pair ``(θL, θU)`` that minimises bandwidth utilisation
``δ(θL, θU)`` subject to ``f(θL, θU) ≥ µ``.

Evaluating a threshold pair does not require re-running the detectors:
the edge and cloud labels of every frame are fixed, only the
send/keep/discard decision changes.  And a frame's contribution to a
pair's score is fully determined by two small integers: how many of its
edge-label confidences fall below ``θL`` (which fixes the surviving
label set) and whether any confidence lands inside ``[θL, θU]`` (which
fixes the sent bit).  Both are found by bisecting the frame's *sorted*
confidence array.  The :class:`ThresholdEvaluator` exploits this twice:

* it computes each frame's confusion-matrix contribution once per
  distinct ``(discard-count, sent)`` state and reuses it for every pair
  that lands the frame in the same state.  A frame with ``k`` detections
  has at most ``2·(k + 1)`` states, so scoring a whole grid costs
  ``O(frames · min(k, grid))`` label matches (``frame_rescores``)
  instead of the ``O(frames · grid²)`` a per-pair re-match would pay;
* for a fixed grid it keeps a running table of integer
  ``(tp, fp, fn, sent)`` totals per grid pair, and a search folds in
  only the frames added since the previous search — a frame is folded
  by *runs* (along a ``θL`` row its pairs split at one bisect into an
  unsent run and a sent run), not pair by pair.  Re-searching a growing
  history (the runtime retune loop, :meth:`ThresholdEvaluator.best_of_grid`)
  then reads the winner off the totals: the fold costs O(new frames),
  the selection one vectorised pass over the grid pairs, and the only
  O(history) work left per search is one latency ``sum()`` for each
  feasible pair tied on the least bandwidth plus the winner's
  initial-latency average.

Scores are exact: confusion counts are integers (order-free), the
table's F-scores are the scalar formula's operations on int64 arrays
(:func:`~repro.detection.metrics.f_scores_of_counts`), and latency
averages are re-summed in trace order from per-frame sent bits with the
builtin ``sum`` — what a per-pair re-match over the frames computes,
bit for bit (a running float total would not be: ``sum`` is compensated
from Python 3.12).

Both search strategies — exhaustive grid search and the paper's faster
gradient-step search — are built on the one evaluator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.config import CroesusConfig
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import f_score_of_counts, f_scores_of_counts
from repro.video.library import make_video


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


class _FrameEntry:
    """Sufficient statistics for one profiled frame.

    ``confidences`` holds the frame's edge-label confidences sorted
    ascending — the breakpoints of its decision function — and
    ``row_confidences`` the same values in label order, both read off the
    edge labels ``overlaps`` was built on.  ``overlaps`` is the frame's
    box geometry without its labels (``FrameOverlaps.unlabelled``: an
    entry lives as long as its evaluator, the frame's labels need not),
    shared by every state; ``stats`` memoises the frame's
    ``(tp, fp, fn)`` contribution per distinct ``(discard_count, sent)``
    state.
    """

    __slots__ = (
        "confidences",
        "row_confidences",
        "initial_latency",
        "sent_latency",
        "unsent_latency",
        "overlaps",
        "stats",
    )

    def __init__(self, latency: LatencyBreakdown, overlaps: FrameOverlaps) -> None:
        self.row_confidences = [detection.confidence for detection in overlaps.edge]
        self.confidences = tuple(sorted(self.row_confidences))
        self.initial_latency = latency.initial_latency
        self.sent_latency = latency.final_latency
        self.unsent_latency = latency.initial_latency + latency.final_txn
        self.overlaps = overlaps.unlabelled()
        self.stats: dict[tuple[int, bool], tuple[int, int, int]] = {}


#: What an empty run of pairs adds to the totals.
_EMPTY_RUN = (0, 0, 0)


class _GridTable:
    """Running score totals of one evaluator over one threshold grid.

    Pairs are the grid's ``(θL index, θU index)`` upper triangle in
    row-major order (``lower_index`` / ``upper_index``) — the order
    ``brute_force_search`` scores them in, so ties break identically.
    ``totals[low, up]`` is a pair's integer ``[tp, fp, fn, sent]`` over
    the ``frames`` frames folded so far (the lower triangle stays zero).
    Per folded frame the table also keeps one column: the frame's bisect
    position per grid value (:attr:`discarded`, :attr:`below_upper`) and
    its three latencies, from which one pair's sent bits — and so its
    latency average — are rebuilt on demand.
    """

    __slots__ = ("step", "values", "lower_index", "upper_index", "totals", "frames",
                 "_upper_indices", "_in_grid", "_columns")

    def __init__(self, step: float) -> None:
        self.step = step
        self.values = threshold_grid(step)
        size = len(self.values)
        self.lower_index, self.upper_index = np.triu_indices(size)
        self.totals = np.zeros((size, size, 4), dtype=np.int64)
        self._upper_indices = np.arange(size)
        # 1 on the pairs of the grid (θL <= θU), 0 below the diagonal.
        self._in_grid = np.triu(np.ones((size, size), dtype=np.int64))[..., None]
        self.frames = 0
        # One column per folded frame: ``size`` discarded counts, ``size``
        # below-upper counts (small integers, exact as floats), then the
        # initial / sent / unsent latency.  Capacity doubles when full.
        self._columns = np.empty((2 * size + 3, 64))

    @property
    def discarded(self) -> np.ndarray:
        """Per grid value (row) and frame (column): confidences below it."""
        return self._columns[: len(self.values), : self.frames]

    @property
    def below_upper(self) -> np.ndarray:
        """Per grid value (row) and frame (column): confidences at or below it."""
        size = len(self.values)
        return self._columns[size : 2 * size, : self.frames]

    def fold(self, frame: _FrameEntry, frame_stats) -> None:
        """Add one frame's contribution to every grid pair's totals.

        ``below_upper`` never decreases along a ``θL`` row, so one bisect
        splits the row's pairs into an unsent run and a sent run, each in
        a single decision state.  ``frame_stats(frame, discarded, sent)``
        is asked only for the runs that are not empty — the states a pair
        of the grid really lands the frame in — and the rows' runs are
        added to the totals in one array operation.
        """
        confidences = frame.confidences
        discarded = [bisect_left(confidences, value) for value in self.values]
        below_upper = [bisect_right(confidences, value) for value in self.values]
        size = len(discarded)
        cuts, unsent_stats, sent_stats = [], [], []
        for low, count in enumerate(discarded):
            cut = bisect_right(below_upper, count, low)  # first θU that sends the frame
            cuts.append(cut)
            unsent_stats.append(frame_stats(frame, count, False) if cut > low else _EMPTY_RUN)
            sent_stats.append(frame_stats(frame, count, True) if cut < size else _EMPTY_RUN)
        sends = self._upper_indices >= np.array(cuts)[:, None]
        self.totals[..., :3] += self._in_grid * np.where(
            sends[..., None], np.array(sent_stats)[:, None], np.array(unsent_stats)[:, None]
        )
        self.totals[..., 3] += sends

        if self.frames == self._columns.shape[1]:
            self._columns = np.concatenate([self._columns, np.empty_like(self._columns)], axis=1)
        self._columns[:, self.frames] = (
            *discarded, *below_upper,
            frame.initial_latency, frame.sent_latency, frame.unsent_latency,
        )
        self.frames += 1

    def f_scores_and_sent(self) -> tuple[np.ndarray, np.ndarray]:
        """Every pair's F-score and sent count, in grid order."""
        tp, fp, fn, sent = self.totals[self.lower_index, self.upper_index].T
        return f_scores_of_counts(tp, fp, fn), sent

    def average_initial_latency(self) -> float:
        return sum(self._columns[-3, : self.frames].tolist()) / self.frames

    def average_final_latency(self, pair: int) -> float:
        """One pair's latency average: ``sum()`` of its trace-ordered list,
        like :meth:`ThresholdEvaluator.evaluate`'s — O(frames), so asked for
        as few pairs as the caller can do with."""
        sent = self.below_upper[self.upper_index[pair]] > self.discarded[self.lower_index[pair]]
        _, sent_latency, unsent_latency = self._columns[-3:, : self.frames]
        return sum(np.where(sent, sent_latency, unsent_latency).tolist()) / self.frames

    def score(
        self, pair: int, f_score: float, sent: int, final_latency: float, initial_latency: float
    ) -> ThresholdScore:
        return ThresholdScore(
            lower=self.values[self.lower_index[pair]],
            upper=self.values[self.upper_index[pair]],
            bandwidth_utilization=sent / self.frames,
            f_score=f_score,
            average_final_latency=final_latency,
            average_initial_latency=initial_latency,
        )


class ThresholdEvaluator:
    """Scores threshold pairs against profiled frames.

    :meth:`evaluate` scores one pair, :meth:`evaluate_grid` every pair of
    a grid and :meth:`best_of_grid` the search's winner among them, the
    last two from a running table that visits a frame once.  A frame is
    re-matched only for a decision state it has not been seen in.

    Parameters
    ----------
    traces:
        Per-frame traces from a *profiling* run, i.e. a run in which the
        cloud labels and cloud-side latencies were recorded for every
        frame (``CroesusSystem`` always records them).  The evaluator may
        start empty and grow via :meth:`add_frame` /
        :meth:`add_validated_frame`, which is how the runtime retune
        controller feeds it freshly validated frames.
    match_overlap:
        Overlap fraction for label matching / scoring.
    """

    def __init__(self, traces: list[FrameTrace] | None = None, match_overlap: float = 0.10) -> None:
        self._frames: list[_FrameEntry] = []
        self._match_overlap = match_overlap
        self._cache: dict[tuple[float, float], ThresholdScore] = {}
        self._table: _GridTable | None = None
        self._evaluations = 0
        self._frame_rescores = 0
        for trace in traces or ():
            self.add_frame(trace)

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
        return len(self._frames)

    @property
    def match_overlap(self) -> float:
        return self._match_overlap

    @property
    def evaluations(self) -> int:
        """Threshold pairs scored (:meth:`evaluate` cache hits do no work;
        a grid search counts every pair of its grid)."""
        return self._evaluations

    @property
    def frame_rescores(self) -> int:
        """Full-frame label-match operations performed so far.

        Grows by one per *newly seen* per-frame decision state, where a
        per-pair re-match would pay ``num_frames`` per scored pair.
        """
        return self._frame_rescores

    def add_frame(self, trace: FrameTrace) -> None:
        """Append one profiled frame and invalidate cached pair scores.

        The trace's two label sets are rendered once and its overlap table
        is built here; a caller already holding the table uses
        :meth:`add_validated_frame`.
        """
        overlaps = FrameOverlaps(
            trace.edge_labels.detections, trace.cloud_labels.detections, self._match_overlap
        )
        self.add_validated_frame(trace.latency, overlaps)

    def add_validated_frame(self, latency: LatencyBreakdown, overlaps: FrameOverlaps) -> None:
        """Append one frame by its latency and the overlap table of its live
        ``(edge, cloud)`` labels — the form the frame pipeline holds a
        validated frame in.  Per-frame decision states already computed
        for *other* frames stay cached, and the grid table is untouched:
        the frame's decision states are scored (and metered as
        ``frame_rescores``) when the next grid search folds it in.
        """
        self._frames.append(_FrameEntry(latency, overlaps))
        self._cache.clear()

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        """Score one ``(θL, θU)`` pair, rounded to 6 places (cached)."""
        # The rounded pair is what is cached *and* what is scored: two
        # spellings of one key must not answer for each other's thresholds.
        lower, upper = key = (round(lower, 6), round(upper, 6))
        if key in self._cache:
            return self._cache[key]

        ThresholdPolicy(lower, upper)  # validate the bounds
        if not self._frames:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        self._evaluations += 1

        true_positives = 0
        false_positives = 0
        false_negatives = 0
        sent_count = 0
        final_latencies = []
        initial_latencies = []

        for frame in self._frames:
            confidences = frame.confidences
            discarded = bisect_left(confidences, lower)
            below_upper = bisect_right(confidences, upper)
            sent = below_upper > discarded

            stats = self._frame_stats(frame, discarded, sent)
            true_positives += stats[0]
            false_positives += stats[1]
            false_negatives += stats[2]

            initial_latencies.append(frame.initial_latency)
            if sent:
                sent_count += 1
                final_latencies.append(frame.sent_latency)
            else:
                final_latencies.append(frame.unsent_latency)

        score = ThresholdScore(
            lower=lower,
            upper=upper,
            bandwidth_utilization=sent_count / len(self._frames),
            f_score=f_score_of_counts(true_positives, false_positives, false_negatives),
            average_final_latency=sum(final_latencies) / len(final_latencies),
            average_initial_latency=sum(initial_latencies) / len(initial_latencies),
        )
        self._cache[key] = score
        return score

    def evaluate_grid(self, step: float = 0.1) -> list[ThresholdScore]:
        """Score every pair of the ``step`` grid, in ``(θL, θU)`` order.

        Equal, score for score, to ``[evaluate(l, u) for each pair]`` —
        but the confusion counts come off the running table, which visits
        only the frames added since the previous grid search.  Every
        pair's latency average is still one O(frames) sum: this is the
        offline callers' entry; a loop that only needs the winner calls
        :meth:`best_of_grid`.
        """
        table = self._folded_table(step)
        f_scores, sent = table.f_scores_and_sent()
        initial_latency = table.average_initial_latency()
        return [
            table.score(pair, f_score, sent_count, table.average_final_latency(pair),
                        initial_latency)
            for pair, (f_score, sent_count) in enumerate(zip(f_scores.tolist(), sent.tolist()))
        ]

    def best_of_grid(self, step: float, target_f_score: float) -> ThresholdScore:
        """The pair :func:`brute_force_search` picks on the ``step`` grid,
        without scoring the others.

        ``select_best(evaluate_grid(step), target_f_score)``, exactly —
        the same rule (:func:`select_pair`) read off the table's integer
        totals: F-scores for all pairs in one vectorised pass, then a
        latency average (O(frames) each) only for the feasible pairs tied
        on the fewest sent frames.  Counts ``len(grid pairs)`` evaluations
        like the full grid does.
        """
        table = self._folded_table(step)
        f_scores, sent = table.f_scores_and_sent()
        best = select_pair(f_scores, sent, table.average_final_latency, target_f_score)
        return table.score(
            best, f_scores[best].item(), sent[best].item(),
            table.average_final_latency(best), table.average_initial_latency(),
        )

    # -- internal -----------------------------------------------------------
    def _folded_table(self, step: float) -> _GridTable:
        """The ``step`` grid's table with every frame folded in.

        The table is kept for one grid; asking for another ``step``
        rebuilds it from the (memoised) frame states.
        """
        table = self._table
        if table is None or table.step != step:
            table = self._table = _GridTable(step)
        frames = self._frames
        if not frames:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        for frame in frames[table.frames:]:
            table.fold(frame, self._frame_stats)
        self._evaluations += len(table.lower_index)
        return table

    def _frame_stats(self, frame: _FrameEntry, discarded: int, sent: bool) -> tuple[int, int, int]:
        """Confusion-matrix contribution of one frame in one decision state.

        ``discarded`` is the number of detections with confidence below
        ``θL``; because the confidences are sorted and the bisect
        boundary is strict, it uniquely determines the surviving label
        set (every detection with confidence ≥ the first survivor's).
        Memoised per state on the frame; a miss is one ``frame_rescores``.
        """
        state = (discarded, sent)
        stats = frame.stats.get(state)
        if stats is not None:
            return stats
        confidences = frame.confidences
        if discarded >= len(confidences):
            rows: list[int] = []
        else:
            cutoff = confidences[discarded]
            rows = [
                row
                for row, confidence in enumerate(frame.row_confidences)
                if confidence >= cutoff
            ]
        stats = frame.overlaps.client_view(rows, sent)[1]
        frame.stats[state] = stats
        self._frame_rescores += 1
        return stats


def brute_force_search(
    evaluator: ThresholdEvaluator,
    target_f_score: float,
    step: float = 0.1,
) -> OptimizationResult:
    """Exhaustively search the threshold grid (the paper's brute-force mode).

    Among pairs meeting the F-score floor, the pair with the lowest
    bandwidth utilisation wins; latency breaks ties.  When no pair is
    feasible, the highest-F-score pair is returned with ``feasible=False``.
    Every score comes off the evaluator's grid table
    (:meth:`ThresholdEvaluator.evaluate_grid`), so ``frame_rescores``
    counts the decision states its fold matched, not ``evaluations ×
    frames``.
    """
    rescores_before = evaluator.frame_rescores
    scores = evaluator.evaluate_grid(step=step)
    best = select_best(scores, target_f_score)
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
    values = threshold_grid(step)
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


def select_best(scores: Sequence[ThresholdScore], target_f_score: float) -> ThresholdScore:
    """The score :func:`select_pair` picks among ``scores``."""
    return scores[
        select_pair(
            np.array([score.f_score for score in scores]),
            np.array([score.bandwidth_utilization for score in scores]),
            lambda pair: scores[pair].average_final_latency,
            target_f_score,
        )
    ]


def threshold_grid(step: float) -> list[float]:
    """Threshold values ``0, step, 2·step, …`` up to 0.95; ``step`` must be
    in (0, 0.5]."""
    if not 0.0 < step <= 0.5:
        raise ValueError("grid step must be in (0, 0.5]")
    values = []
    value = 0.0
    while value < 0.95 + 1e-9:
        values.append(round(value, 6))
        value += step
    return values
