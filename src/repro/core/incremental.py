"""Incremental threshold scoring and the exact ordered-grid search.

:class:`~repro.core.optimizer.ThresholdEvaluator` re-runs label matching
over every profiled frame for every candidate ``(θL, θU)`` pair.  But a
frame's contribution to the score is fully determined by two small
integers: how many of its edge-label confidences fall below ``θL``
(which fixes the surviving label set) and whether any confidence lands
inside ``[θL, θU]`` (which fixes the sent bit).  Both are found by
bisecting the frame's *sorted* confidence array — the breakpoints at
which the frame's VALIDATE/KEEP/DISCARD partition changes.

:class:`IncrementalThresholdScorer` exploits this twice:

* it computes each frame's confusion-matrix contribution once per
  distinct ``(discard-count, sent)`` state and reuses it for every
  threshold pair that lands the frame in the same state.  A frame with
  ``k`` detections has at most ``2·(k + 1)`` states, so scoring a whole
  grid costs ``O(frames · min(k, grid))`` label matches
  (``frame_rescores``) instead of ``O(frames · grid²)``;
* for a fixed grid it keeps a running table of integer
  ``(tp, fp, fn, sent)`` totals per grid pair, and a search folds in
  only the frames added since the previous search — so re-searching a
  growing history (the runtime retune loop) costs O(new frames), not
  O(history), per tick.

:func:`coordinate_descent_search` is the search on top: it reads every
grid pair's score off the table and picks the winner over all of them
in ``(θL, θU)`` grid order — :func:`~repro.core.optimizer.brute_force_search`
over the table, hence its exact optimum at the same step, tie-breaks
included.

Scores are **bit-identical** to ``ThresholdEvaluator.evaluate()``:
confusion counts are integers (order-free), and latency averages are
re-summed in trace order from per-frame sent bits with the builtin
``sum``, reproducing the evaluator's float accumulation exactly (a
running float total would not: ``sum`` is compensated from Python 3.12).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.core.optimizer import (
    OptimizationResult,
    ThresholdEvaluator,
    ThresholdScore,
    _grid,
    brute_force_search,
)
from repro.core.results import FrameTrace
from repro.core.thresholds import ThresholdPolicy
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import f_score_of_counts


class _FrameEntry:
    """Sufficient statistics for one profiled frame.

    ``confidences`` holds the frame's edge-label confidences sorted
    ascending — the breakpoints of its decision function — and
    ``row_confidences`` the same values in label order.  ``overlaps`` is
    the frame's box geometry, built once and shared by every state;
    ``stats`` memoises the frame's ``(tp, fp, fn)`` contribution per
    distinct ``(discard_count, sent)`` state.
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

    def __init__(self, trace: FrameTrace, match_overlap: float) -> None:
        detections = trace.edge_labels.detections
        self.row_confidences = [detection.confidence for detection in detections]
        self.confidences = tuple(sorted(self.row_confidences))
        latency = trace.latency
        self.initial_latency = latency.initial_latency
        self.sent_latency = latency.final_latency
        self.unsent_latency = latency.initial_latency + latency.final_txn
        self.overlaps = FrameOverlaps(detections, trace.cloud_labels.detections, match_overlap)
        self.stats: dict[tuple[int, bool], tuple[int, int, int]] = {}


class _GridTable:
    """Running score totals of one scorer over one threshold grid.

    ``pairs`` lists the grid's ``(θL index, θU index)`` pairs in
    ``(θL, θU)`` order — the order ``brute_force_search`` scores them
    in, so ties break identically.  ``totals[p]`` is pair ``p``'s
    integer ``[tp, fp, fn, sent]`` over the first ``len(discarded)``
    frames of the scorer; ``discarded[f]`` / ``below_upper[f]`` keep
    frame ``f``'s bisect position per grid value, from which a search
    rebuilds the per-pair sent bits for the latency averages.
    """

    __slots__ = ("step", "values", "pairs", "lower_index", "upper_index",
                 "totals", "discarded", "below_upper")

    def __init__(self, step: float) -> None:
        self.step = step
        self.values = _grid(step)
        # Row-major upper triangle: low <= up, sorted by (low, up).
        self.lower_index, self.upper_index = np.triu_indices(len(self.values))
        self.pairs = list(zip(self.lower_index.tolist(), self.upper_index.tolist()))
        for low, up in self.pairs:
            # Validate bounds exactly like the evaluator does per pair.
            ThresholdPolicy(self.values[low], self.values[up])
        self.totals = [[0, 0, 0, 0] for _ in self.pairs]
        self.discarded: list[list[int]] = []
        self.below_upper: list[list[int]] = []


class IncrementalThresholdScorer:
    """Scores threshold pairs in O(frames whose decision changed).

    Drop-in score-compatible with :class:`ThresholdEvaluator`: for any
    ``(lower, upper)`` pair, :meth:`evaluate` returns a
    :class:`ThresholdScore` equal field-for-field (bit-for-bit floats)
    to the evaluator's — it just avoids re-matching labels for frames
    whose send/keep/discard decision it has already seen.
    :meth:`evaluate_grid` returns the same scores for a whole grid from a
    running table that only ever visits a frame once.

    The scorer may start empty and grow via :meth:`add_frame`, which is
    how the runtime adapter feeds it freshly validated frames.
    """

    def __init__(self, traces: list[FrameTrace] | None = None, match_overlap: float = 0.10) -> None:
        self._frames = [_FrameEntry(trace, match_overlap) for trace in (traces or [])]
        self._match_overlap = match_overlap
        self._cache: dict[tuple[float, float], ThresholdScore] = {}
        self._table: _GridTable | None = None
        self._evaluations = 0
        self._frame_rescores = 0

    @classmethod
    def from_evaluator(cls, evaluator: ThresholdEvaluator) -> "IncrementalThresholdScorer":
        """Build a scorer over the same traces an evaluator scores."""
        return cls(evaluator.traces, match_overlap=evaluator.match_overlap)

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    @property
    def match_overlap(self) -> float:
        return self._match_overlap

    @property
    def evaluations(self) -> int:
        """Threshold pairs scored (:meth:`evaluate` cache hits do no work)."""
        return self._evaluations

    @property
    def frame_rescores(self) -> int:
        """Full-frame label-match operations performed so far.

        Grows by one per *newly seen* per-frame decision state — the
        quantity the ≥10× gate compares against the evaluator's
        ``num_frames`` per scored pair.
        """
        return self._frame_rescores

    def add_frame(self, trace: FrameTrace) -> None:
        """Append one profiled frame and invalidate cached pair scores.

        Per-frame decision states already computed for *other* frames
        stay cached, and the grid table is untouched: only the frame's
        box geometry is built here; its decision states are scored (and
        metered as ``frame_rescores``) when the next :meth:`evaluate_grid`
        folds it in.
        """
        self._frames.append(_FrameEntry(trace, self._match_overlap))
        self._cache.clear()

    def evaluate(self, lower: float, upper: float) -> ThresholdScore:
        """Score one ``(θL, θU)`` pair, bit-identical to the evaluator."""
        key = (round(lower, 6), round(upper, 6))
        if key in self._cache:
            return self._cache[key]

        ThresholdPolicy(lower, upper)  # validate bounds exactly like the evaluator
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

    def evaluate_grid(self, step: float) -> list[ThresholdScore]:
        """Score every pair of the ``step`` grid, in ``(θL, θU)`` order.

        Equal, score for score, to ``[evaluate(l, u) for each pair]`` —
        but only the frames added since the previous call are visited:
        each is bisected once per grid value and added to the running
        per-pair totals.  The table is kept for one grid; asking for
        another ``step`` rebuilds it from the (memoised) frame states.
        """
        table = self._table
        if table is None or table.step != step:
            table = self._table = _GridTable(step)
        frames = self._frames
        if not frames:
            raise ValueError("cannot evaluate thresholds without any frame traces")
        for frame in frames[len(table.discarded):]:
            self._fold(table, frame)
        self._evaluations += len(table.pairs)

        # Latency averages must be sum() of a trace-ordered list, like the
        # evaluator's; one (frames x pairs) select builds all the lists.
        sent = (
            np.array(table.below_upper)[:, table.upper_index]
            > np.array(table.discarded)[:, table.lower_index]
        )
        final_latencies = np.where(
            sent,
            np.array([frame.sent_latency for frame in frames])[:, None],
            np.array([frame.unsent_latency for frame in frames])[:, None],
        ).T.tolist()
        count = len(frames)
        average_initial = sum([frame.initial_latency for frame in frames]) / count
        values = table.values
        return [
            ThresholdScore(
                lower=values[low],
                upper=values[up],
                bandwidth_utilization=sent_count / count,
                f_score=f_score_of_counts(tp, fp, fn),
                average_final_latency=sum(latencies) / count,
                average_initial_latency=average_initial,
            )
            for (low, up), (tp, fp, fn, sent_count), latencies in zip(
                table.pairs, table.totals, final_latencies
            )
        ]

    # -- internal -----------------------------------------------------------
    def _fold(self, table: _GridTable, frame: _FrameEntry) -> None:
        """Add one frame's contribution to every grid pair's totals."""
        confidences = frame.confidences
        discarded = [bisect_left(confidences, value) for value in table.values]
        below_upper = [bisect_right(confidences, value) for value in table.values]
        for totals, (low, up) in zip(table.totals, table.pairs):
            sent = below_upper[up] > discarded[low]
            stats = self._frame_stats(frame, discarded[low], sent)
            totals[0] += stats[0]
            totals[1] += stats[1]
            totals[2] += stats[2]
            totals[3] += sent
        table.discarded.append(discarded)
        table.below_upper.append(below_upper)

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


def _scorer_for(evaluator: ThresholdEvaluator | IncrementalThresholdScorer) -> IncrementalThresholdScorer:
    """The incremental scorer backing ``evaluator`` (cached on it)."""
    if isinstance(evaluator, IncrementalThresholdScorer):
        return evaluator
    scorer = getattr(evaluator, "_incremental_scorer", None)
    if scorer is None:
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        evaluator._incremental_scorer = scorer
    return scorer


def coordinate_descent_search(
    evaluator: ThresholdEvaluator | IncrementalThresholdScorer,
    target_f_score: float,
    step: float = 0.05,
) -> OptimizationResult:
    """The exact grid optimum, from an incrementally maintained table.

    This is :func:`~repro.core.optimizer.brute_force_search` run on the
    evaluator's incremental scorer: every pair of the ``step`` grid is
    scored (:meth:`IncrementalThresholdScorer.evaluate_grid`) and the
    winner is chosen over all of them in ``(θL, θU)`` order — the same
    optimum, tie-breaks included; ``evaluations`` is the number of grid
    pairs.  No descent is run (the public name predates the table).

    The work is not in the pairs but in the label matching, and that is
    where the incremental scorer wins: each frame is re-matched only
    once per distinct decision state (at most ``2·(detections + 1)``
    regardless of grid resolution), so the default grid here is twice
    as fine as the brute-force default while ``frame_rescores`` — the
    full-frame label matches actually performed — stays ≥10× below the
    ``evaluations × frames`` the evaluator would pay.  A repeated search
    over a history that grew (the online retune loop) only visits the
    new frames.  Pass the same ``step`` to both searches when comparing
    optima directly.
    """
    return brute_force_search(_scorer_for(evaluator), target_f_score, step=step)
