"""Tests for the table-backed threshold evaluator.

The contract under test is exactness: ``ThresholdEvaluator`` scores a
pair from per-frame decision states and a running grid table, and every
score it returns — pair by pair, off the table, or through either search
— must be bit-identical to ``helpers.ReferenceEvaluator``, the per-pair
re-match of every frame it replaced, with the same optimum (same grid,
same tie-breaks) while re-matching far fewer frames.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import replace
from functools import reduce
from operator import add

import pytest
from helpers import ReferenceEvaluator, count_constructions, profiled_traces
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CroesusConfig
from repro.core.optimizer import (
    ThresholdEvaluator,
    ThresholdScore,
    brute_force_search,
    gradient_step_search,
    threshold_grid,
)
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport
from repro.experiments import build_single_config, get_scenario


# -- random-trace substrate ---------------------------------------------------
#
# Detections live in disjoint grid slots (one 10x10 box per slot), so
# label matching is decided purely by slot: an edge detection matches a
# cloud detection iff they share a slot.  That keeps the geometry out of
# the way while still exercising every TP/FP/FN combination.

def _slot_box(slot: int) -> BoundingBox:
    left = slot * 20.0
    return BoundingBox(left, 0.0, left + 10.0, 10.0)


def _label_set(frame_id: int, slots_and_confidences, model: str) -> LabelSet:
    detections = tuple(
        Detection("object", confidence, _slot_box(slot), object_id=slot)
        for slot, confidence in slots_and_confidences
    )
    return LabelSet(frame_id, detections, model)


confidences = st.floats(0.0, 1.0, allow_nan=False)

frame_contents = st.tuples(
    st.lists(st.tuples(st.integers(0, 5), confidences), max_size=6),  # edge
    st.lists(st.integers(0, 5), max_size=6),  # cloud slots
    st.floats(0.001, 0.5),  # initial latency component
    st.floats(0.001, 0.5),  # cloud round-trip component
)

trace_lists = st.lists(frame_contents, min_size=1, max_size=12)

threshold_pairs = st.tuples(confidences, confidences).map(
    lambda pair: (min(pair), max(pair))
)


def _build_traces(contents) -> list[FrameTrace]:
    traces = []
    for frame_id, (edge, cloud_slots, edge_s, cloud_s) in enumerate(contents):
        edge_labels = _label_set(frame_id, edge, "edge")
        cloud_labels = _label_set(
            frame_id, [(slot, 0.99) for slot in sorted(set(cloud_slots))], "cloud"
        )
        latency = LatencyBreakdown(
            edge_transfer=edge_s,
            edge_detection=edge_s,
            initial_txn=edge_s / 2,
            cloud_transfer=cloud_s,
            cloud_detection=cloud_s,
            final_txn=cloud_s / 2,
        )
        traces.append(
            FrameTrace.from_labels(
                frame_id=frame_id,
                edge_labels=edge_labels,
                cloud_labels=cloud_labels,
                observed_labels=edge_labels,
                sent_to_cloud=True,
                latency=latency,
                accuracy=AccuracyReport(0, 0, 0),
            )
        )
    return traces


class TestScorerMatchesEvaluator:
    @given(trace_lists, threshold_pairs)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_traces(self, contents, pair):
        """One score, arbitrary trace set: evaluator == oracle, exactly."""
        lower, upper = pair
        traces = _build_traces(contents)
        evaluator = ThresholdEvaluator(traces)
        assert evaluator.evaluate(lower, upper) == ReferenceEvaluator(traces).evaluate(lower, upper)

    @given(trace_lists, st.lists(threshold_pairs, min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_along_threshold_walks(self, contents, walk):
        """A walk re-uses per-frame sufficient statistics; every step must
        still reproduce the oracle's score bit for bit."""
        traces = _build_traces(contents)
        evaluator = ThresholdEvaluator(traces)
        reference = ReferenceEvaluator(traces)
        for lower, upper in walk:
            assert evaluator.evaluate(lower, upper) == reference.evaluate(lower, upper)

    @given(trace_lists, trace_lists, threshold_pairs)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_after_incremental_adds(self, contents, more, pair):
        """Frames added after scoring started are folded in exactly."""
        lower, upper = pair
        initial = _build_traces(contents)
        evaluator = ThresholdEvaluator(initial)
        evaluator.evaluate(lower, upper)  # warm the per-frame statistics

        added = _build_traces(contents + more)[len(initial):]
        for trace in added:
            evaluator.add_frame(trace)
        reference = ReferenceEvaluator(initial + added)
        assert evaluator.evaluate(lower, upper) == reference.evaluate(lower, upper)

    @given(
        trace_lists,
        st.lists(st.tuples(st.integers(1, 12), st.sampled_from([0.05, 0.1, 0.2]),
                           st.sampled_from([0.5, 0.8, 1.01]), threshold_pairs),
                 min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_entry_equals_the_oracle_as_the_history_grows(self, contents, points):
        """``evaluate``, ``evaluate_grid``, ``best_of_grid`` and both
        searches, interleaved with ``add_frame`` growth: each result is
        the oracle's over the same history, bit for bit."""
        traces = _build_traces(contents)
        evaluator = ThresholdEvaluator()
        for length, step, target, (lower, upper) in points:
            for trace in traces[evaluator.num_frames:max(length, evaluator.num_frames)]:
                evaluator.add_frame(trace)
            reference = ReferenceEvaluator(traces[: evaluator.num_frames])
            assert evaluator.evaluate(lower, upper) == reference.evaluate(lower, upper)
            grid = reference.evaluate_grid(step)
            assert evaluator.evaluate_grid(step) == grid
            brute, expected = (
                brute_force_search(candidate, target, step=step)
                for candidate in (evaluator, reference)
            )
            assert evaluator.best_of_grid(step, target) == brute.best == expected.best
            assert (brute.scores, brute.feasible, brute.evaluations) == (
                expected.scores, expected.feasible, expected.evaluations
            )
            gradient, expected = (
                gradient_step_search(candidate, target, step=step)
                for candidate in (evaluator, reference)
            )
            assert (gradient.best, gradient.scores, gradient.feasible, gradient.evaluations) == (
                expected.best, expected.scores, expected.feasible, expected.evaluations
            )

    def test_profiled_video_scores_match_on_the_full_grid(self):
        """Real profiled traces, every grid pair: still bit-identical."""
        traces = profiled_traces(CroesusConfig(seed=4), "v1", num_frames=40)
        evaluator = ThresholdEvaluator(traces)
        reference = ReferenceEvaluator(traces)
        assert evaluator.evaluate_grid(step=0.1) == reference.evaluate_grid(step=0.1)
        for expected in reference.evaluate_grid(step=0.1):
            assert evaluator.evaluate(expected.lower, expected.upper) == expected

    def test_profile_scores_what_the_oracle_scores_on_profiled_traces(self):
        """``profile`` and the oracle tests' ``profiled_traces`` helper
        profile the same run, so a change to either shows here.  A
        non-default overlap checks that ``profile`` passes it on."""
        config = replace(CroesusConfig(seed=4), match_overlap=0.3)
        evaluator = ThresholdEvaluator.profile(config, "v1", num_frames=40)
        reference = ReferenceEvaluator(
            profiled_traces(config, "v1", num_frames=40), config.match_overlap
        )
        assert (evaluator.num_frames, evaluator.match_overlap) == (40, 0.3)
        assert evaluator.evaluate_grid(step=0.1) == reference.evaluate_grid(step=0.1)
        assert reference.evaluate_grid(step=0.1) != ReferenceEvaluator(
            profiled_traces(config, "v1", num_frames=40)
        ).evaluate_grid(step=0.1)

    @pytest.mark.parametrize("scorer_class", [ThresholdEvaluator, ReferenceEvaluator])
    @pytest.mark.parametrize("first, second", [(0.3000004, 0.2999996), (0.2999996, 0.3000004)])
    def test_evaluate_scores_the_pair_it_caches_under(self, scorer_class, first, second):
        """Two spellings of one cache key, a confidence lying between
        them: whichever is asked first, both get the rounded pair's score
        (the unrounded arguments used to be scored, so the second caller
        was handed a score computed for the first caller's thresholds)."""
        traces = _build_traces([([(0, 0.3000001), (1, 0.6)], [0, 1], 0.1, 0.1)])
        expected = scorer_class(traces).evaluate(0.3, 0.9)
        scorer = scorer_class(traces)
        assert scorer.evaluate(first, 0.9) == expected
        assert scorer.evaluate(second, 0.9) == expected
        assert expected.pair == (0.3, 0.9)
        # 0.3000001 >= 0.3 survives; a cutoff of 0.3000004 would drop it.
        assert expected.f_score == 1.0

    def test_a_shared_overlap_table_scores_like_one_built_here(self, monkeypatch):
        """``add_validated_frame(latency, overlaps)`` — what the retune tuner
        hands over, a table built elsewhere — builds none and scores the
        same."""
        traces = _build_traces(
            [([(0, 0.2), (1, 0.6), (3, 0.9)], [0, 1, 2], 0.1, 0.2), ([], [4], 0.1, 0.1)]
        )
        built_here = ThresholdEvaluator(traces)
        tables = [
            FrameOverlaps(
                trace.edge_labels.detections, trace.cloud_labels.detections, 0.10
            )
            for trace in traces
        ]
        built = count_constructions(monkeypatch, FrameOverlaps)
        shared = ThresholdEvaluator()
        for trace, table in zip(traces, tables):
            shared.add_validated_frame(trace.latency, table)
        assert shared.evaluate_grid(0.05) == built_here.evaluate_grid(0.05)
        assert shared.frame_rescores == built_here.frame_rescores
        assert built["FrameOverlaps"] == 0


# -- the running grid table ----------------------------------------------------

#: A search point: (history length to grow to, grid step, F-score target).
search_points = st.tuples(
    st.integers(1, 12), st.sampled_from([0.05, 0.1]), st.sampled_from([0.5, 0.8, 1.01])
)


#: Frames whose confidences sit on and between grid values and whose
#: latencies come from two values: many grid pairs then tie on the sent
#: count, on the latency average, or on both.
tie_prone_contents = st.tuples(
    st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from([0.0, 0.12, 0.3, 0.33, 0.5, 0.77, 0.95, 1.0])),
        max_size=4,
    ),
    st.lists(st.integers(0, 5), max_size=4),
    st.sampled_from([0.125, 0.25]),
    st.sampled_from([0.125, 0.25]),
)

tie_prone_trace_lists = st.lists(tie_prone_contents, min_size=1, max_size=12)


def _reference_best(scores: list[ThresholdScore], target_f_score: float) -> ThresholdScore:
    """The search's selection rule as first written, over whole scores —
    the oracle the table's winner is held to."""
    feasible = [score for score in scores if score.f_score >= target_f_score]
    if feasible:
        return min(
            feasible,
            key=lambda s: (s.bandwidth_utilization, s.average_final_latency, -s.f_score),
        )
    return max(scores, key=lambda s: s.f_score)


class _PerPairFold:
    """The fold the table's run-wise fold replaced, kept as its oracle:
    one Python iteration per grid pair, each asking its own scorer for
    the pair's decision state."""

    def __init__(self, step: float) -> None:
        self.scorer = ThresholdEvaluator()
        self.values = threshold_grid(step)
        size = len(self.values)
        self.pairs = [(low, up) for low in range(size) for up in range(low, size)]
        self.totals = {pair: [0, 0, 0, 0] for pair in self.pairs}
        self.discarded: list[list[int]] = []
        self.below_upper: list[list[int]] = []

    def add(self, trace: FrameTrace) -> None:
        self.scorer.add_frame(trace)
        frame = self.scorer._frames[-1]
        discarded = [bisect_left(frame.confidences, value) for value in self.values]
        below_upper = [bisect_right(frame.confidences, value) for value in self.values]
        for low, up in self.pairs:
            sent = below_upper[up] > discarded[low]
            stats = self.scorer._frame_stats(frame, discarded[low], sent)
            totals = self.totals[low, up]
            for column in range(3):
                totals[column] += stats[column]
            totals[3] += sent
        self.discarded.append(discarded)
        self.below_upper.append(below_upper)


def _tied_traces(latencies: list[float]) -> list[FrameTrace]:
    """Frames on which many pairs reach F = 1 and the fewest sends, told
    apart only by latency: slot 0 is right (confidence above every grid
    value the tie spans), slot 1 is a false positive the cloud removes
    when the frame is sent and ``θL`` removes when it is not."""
    return [
        FrameTrace.from_labels(
            frame_id=frame_id,
            edge_labels=_label_set(frame_id, [(0, 0.93), (1, 0.12)], "edge"),
            cloud_labels=_label_set(frame_id, [(0, 0.99)], "cloud"),
            observed_labels=_label_set(frame_id, [], "edge"),
            sent_to_cloud=True,
            latency=LatencyBreakdown(edge_detection=value, cloud_detection=value / 3),
            accuracy=AccuracyReport(0, 0, 0),
        )
        for frame_id, value in enumerate(latencies)
    ]


class TestGridTable:
    @given(
        st.one_of(trace_lists, tie_prone_trace_lists),
        st.lists(search_points, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_table_selects_what_the_rule_selects_over_all_scores(self, contents, points):
        """Interleaved adds and searches: the winner read off the totals
        (one score built) is the one the rule as first written picks from
        every score of the grid — the table's and the oracle's — ties
        on bandwidth, on latency and on F, infeasible targets and frames
        without detections included."""
        traces = _build_traces(contents)
        scorer = ThresholdEvaluator()
        for length, step, target in points:
            length = min(length, len(traces))
            for trace in traces[scorer.num_frames:length]:
                scorer.add_frame(trace)
            evaluations = scorer.evaluations
            best = scorer.best_of_grid(step, target)
            assert scorer.evaluations - evaluations == len(scorer.evaluate_grid(step))
            assert best == _reference_best(scorer.evaluate_grid(step), target)
            evaluator = ReferenceEvaluator(traces[: scorer.num_frames])
            assert best == _reference_best(evaluator.evaluate_grid(step), target)
            assert best == brute_force_search(evaluator, target, step=step).best

    def test_latency_decides_among_pairs_tied_on_the_fewest_sends(self):
        """Several feasible pairs send equally few frames — different
        frames, so their latency averages differ — and the lowest average
        wins: not the first pair in grid order, not the highest."""
        traces = _build_traces(
            [
                # A and B are wrong unless validated (slot 0 is not what
                # the cloud sees); C is right and never sent.  The target
                # needs one of A, B corrected: pairs sending only A (slow
                # cloud trip, θL <= 0.2 <= θU < 0.7) come first in grid
                # order, pairs sending only B (0.2 < θL <= 0.7 <= θU) later.
                ([(0, 0.2)], [1], 0.01, 0.4),
                ([(0, 0.7)], [1], 0.01, 0.05),
                ([(0, 0.99)], [0], 0.01, 0.01),
            ]
        )
        scorer = ThresholdEvaluator(traces)
        scores = scorer.evaluate_grid(0.05)
        target = 0.6
        feasible = [score for score in scores if score.f_score >= target]
        least = min(score.bandwidth_utilization for score in feasible)
        tied = [score for score in feasible if score.bandwidth_utilization == least]
        latencies = {score.average_final_latency for score in tied}
        assert len(tied) > 2 and len(latencies) > 1  # the case discriminates
        best = scorer.best_of_grid(0.05, target)
        assert best == _reference_best(scores, target)
        assert best.average_final_latency == min(latencies)
        assert best != tied[0]  # grid order alone would pick another pair

    def test_f_score_then_grid_order_decide_when_latency_ties_too(self):
        """Pairs with the same sent pattern share bandwidth *and* latency:
        the higher F-score wins, and of equal F-scores the first pair in
        ``(θL, θU)`` order."""
        traces = _build_traces(
            [
                # Slot 1 is a false positive below 0.35: θL above it lifts F
                # without changing what is sent (nothing is, below θU = 0.1).
                ([(0, 0.9), (1, 0.33)], [0], 0.1, 0.1),
                ([(0, 0.8)], [0], 0.1, 0.1),
            ]
        )
        scorer = ThresholdEvaluator(traces)
        scores = scorer.evaluate_grid(0.05)
        target = 0.5
        best = scorer.best_of_grid(0.05, target)
        assert best == _reference_best(scores, target)
        rivals = [
            score
            for score in scores
            if score.f_score >= target
            and score.bandwidth_utilization == best.bandwidth_utilization
            and score.average_final_latency == best.average_final_latency
        ]
        assert len({score.f_score for score in rivals}) > 1  # -F decides...
        assert best.f_score == max(score.f_score for score in rivals)
        top = [score for score in rivals if score.f_score == best.f_score]
        assert len(top) > 1 and best is not top[-1] and best == top[0]  # ...then grid order

    def test_an_infeasible_target_takes_the_first_pair_of_the_highest_f_score(self):
        traces = _build_traces([([(0, 0.5), (1, 0.6)], [0, 2], 0.1, 0.1), ([], [3], 0.1, 0.1)])
        scorer = ThresholdEvaluator(traces)
        scores = scorer.evaluate_grid(0.1)
        best = scorer.best_of_grid(0.1, 1.01)
        highest = max(score.f_score for score in scores)
        assert highest < 1.01
        assert [score.f_score for score in scores].count(highest) > 1
        assert best == next(score for score in scores if score.f_score == highest)

    @given(tie_prone_trace_lists, st.sampled_from([0.05, 0.1]))
    @settings(max_examples=40, deadline=None)
    def test_the_run_wise_fold_is_the_per_pair_fold(self, contents, step):
        """After every add: the table's totals, its per-frame bisect
        columns and the label matches it paid for are those of a fold that
        visits every pair of the grid."""
        oracle = _PerPairFold(step)
        scorer = ThresholdEvaluator()
        for trace in _build_traces(contents):
            oracle.add(trace)
            scorer.add_frame(trace)
            scorer.best_of_grid(step, 0.8)
            table = scorer._table
            assert table.frames == scorer.num_frames
            assert {
                (low, up): table.totals[low, up].tolist() for low, up in oracle.pairs
            } == oracle.totals
            assert not table.totals[table.upper_index, table.lower_index][
                table.upper_index != table.lower_index
            ].any()  # nothing lands below the diagonal
            assert table.discarded.T.tolist() == oracle.discarded
            assert table.below_upper.T.tolist() == oracle.below_upper
            assert scorer.frame_rescores == oracle.scorer.frame_rescores

    def test_a_folded_frame_asks_for_at_most_two_states_per_grid_row(self, monkeypatch):
        """The fold is by runs: per ``θL`` row one unsent and one sent
        state at most, whatever the grid's size in pairs."""
        calls = []
        frame_stats = ThresholdEvaluator._frame_stats

        def counting(self, frame, discarded, sent):
            calls.append((discarded, sent))
            return frame_stats(self, frame, discarded, sent)

        traces = profiled_traces(CroesusConfig(seed=4), "v1", num_frames=12)
        monkeypatch.setattr(ThresholdEvaluator, "_frame_stats", counting)
        scorer = ThresholdEvaluator()
        rows = len(threshold_grid(0.05))
        for trace in traces:
            scorer.add_frame(trace)
            del calls[:]
            scorer.best_of_grid(0.05, 0.8)
            assert 0 < len(calls) <= 2 * rows
        # One search over frames already folded asks for nothing.
        del calls[:]
        scorer.best_of_grid(0.05, 0.8)
        assert calls == []

    def test_a_search_for_the_winner_builds_one_score(self, monkeypatch):
        scorer = ThresholdEvaluator.profile(CroesusConfig(seed=4), "v1", num_frames=12)
        built = count_constructions(monkeypatch, ThresholdScore)
        scorer.best_of_grid(0.05, 0.8)
        assert built["ThresholdScore"] == 1
        scorer.evaluate_grid(0.05)
        assert built["ThresholdScore"] == 1 + 210

    @given(trace_lists, st.lists(search_points, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_adds_and_searches_match_brute_force(self, contents, points):
        """Any interleaving of ``add_frame`` and searches (the step may
        change between them): the table's scores, and the search result,
        are those of a from-scratch brute force over the same history."""
        traces = _build_traces(contents)
        scorer = ThresholdEvaluator()
        for length, step, target in points:
            length = min(length, len(traces))
            for trace in traces[scorer.num_frames:length]:
                scorer.add_frame(trace)
            history = traces[:scorer.num_frames]  # never shrinks

            result = brute_force_search(scorer, target_f_score=target, step=step)
            brute = brute_force_search(ReferenceEvaluator(history), target, step=step)
            assert result.scores == brute.scores
            assert result.best == brute.best
            assert result.feasible == brute.feasible
            assert result.evaluations == brute.evaluations
            for score in result.scores:
                assert scorer.evaluate(score.lower, score.upper) == score

    def test_latency_averages_keep_the_builtin_sum_semantics(self):
        """Ill-conditioned latencies, where a running ``+=`` total, the
        builtin ``sum`` of Python >= 3.12 (compensated) and the exact sum
        disagree: the table must reproduce whatever ``sum()`` of the
        trace-ordered list gives the oracle on this interpreter."""
        latencies = [1e16, 1.0, -1e16, 1.0, 3.0, 1e16, 1.0, -1e16]
        assert reduce(add, latencies) != math.fsum(latencies)  # the case discriminates
        traces = [
            FrameTrace.from_labels(
                frame_id=frame_id,
                edge_labels=_label_set(frame_id, [(0, 0.1 * frame_id), (1, 0.5)], "edge"),
                cloud_labels=_label_set(frame_id, [(0, 0.99)], "cloud"),
                observed_labels=_label_set(frame_id, [], "edge"),
                sent_to_cloud=True,
                latency=LatencyBreakdown(edge_detection=value, cloud_detection=value / 3),
                accuracy=AccuracyReport(0, 0, 0),
            )
            for frame_id, value in enumerate(latencies)
        ]
        evaluator = ReferenceEvaluator(traces)
        scorer = ThresholdEvaluator()
        for trace in traces[:5]:
            scorer.add_frame(trace)
        brute_force_search(scorer, target_f_score=0.8, step=0.1)
        for trace in traces[5:]:
            scorer.add_frame(trace)
        result = brute_force_search(scorer, target_f_score=0.8, step=0.1)
        assert list(result.scores) == evaluator.evaluate_grid(step=0.1)
        # Sent and unsent frames carry different latencies, so the
        # per-pair averages really are re-summed per sent pattern.
        assert len({score.average_final_latency for score in result.scores}) > 1

    def test_the_tie_break_sums_keep_the_builtin_sum_semantics(self):
        """The same ill-conditioned latencies with a tie forced: every
        pair with ``θL`` in (0.12, 0.93] discards the false positive and
        reaches F = 1; those with ``θU`` below 0.93 send nothing, so the
        fewest sends is a many-way tie decided by latency averages that
        only the builtin ``sum`` of the trace-ordered list reproduces."""
        latencies = [1e16, 1.0, -1e16, 1.0, 3.0, 1e16, 1.0, -1e16]
        traces = _tied_traces(latencies)
        scorer = ThresholdEvaluator()
        for trace in traces[:5]:
            scorer.add_frame(trace)
        scorer.best_of_grid(0.1, 1.0)
        for trace in traces[5:]:
            scorer.add_frame(trace)
        best = scorer.best_of_grid(0.1, 1.0)
        scores = ReferenceEvaluator(traces).evaluate_grid(step=0.1)
        tied = [s for s in scores if s.f_score >= 1.0 and s.bandwidth_utilization == 0.0]
        assert len(tied) > 2
        assert best == _reference_best(scores, 1.0)
        unsent = [value + 0.0 for value in latencies]  # initial latency + final_txn (0)
        assert best.average_final_latency == sum(unsent) / len(unsent)
        assert best.average_final_latency != math.fsum(unsent) / len(unsent)

    def test_searching_an_empty_scorer_raises_like_evaluate(self):
        message = "cannot evaluate thresholds without any frame traces"
        with pytest.raises(ValueError, match=message):
            ThresholdEvaluator().evaluate(0.3, 0.7)
        with pytest.raises(ValueError, match=message):
            brute_force_search(ThresholdEvaluator(), target_f_score=0.8)
        with pytest.raises(ValueError, match=message):
            ThresholdEvaluator().best_of_grid(0.1, 0.8)

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.6])
    def test_invalid_step_is_rejected_before_any_table_exists(self, step):
        scorer = ThresholdEvaluator(_build_traces([([(0, 0.5)], [0], 0.1, 0.1)]))
        with pytest.raises(ValueError, match="grid step"):
            brute_force_search(scorer, target_f_score=0.8, step=step)
        # A failed search leaves no half-built table behind.
        assert brute_force_search(scorer, target_f_score=0.8, step=0.1).evaluations == 55


# -- the table against the oracle on profiled videos -------------------------

#: Frames profiled per fig2 video (the scenarios' 80 halved for speed).
PROFILE_FRAMES = 40


@pytest.fixture(scope="module")
def figure_traces() -> dict[str, tuple[list[FrameTrace], float]]:
    """Profiled traces (and match overlap) of the paper's fig2/table1 videos."""
    traces = {}
    for name in ("fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"):
        spec = get_scenario(name)
        config = build_single_config(spec)
        traces[name] = (
            profiled_traces(config, spec.video, PROFILE_FRAMES), config.match_overlap
        )
    return traces


def _searches(figure_traces, name, target):
    """Brute force at step 0.05 on a fresh table and on the oracle."""
    traces, match_overlap = figure_traces[name]
    return tuple(
        brute_force_search(evaluator_class(traces, match_overlap), target, step=0.05)
        for evaluator_class in (ThresholdEvaluator, ReferenceEvaluator)
    )


class TestTableAgainstTheOracle:
    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"])
    @pytest.mark.parametrize("target", [0.7, 0.8, 0.9])
    def test_matches_brute_force_optimum_exactly(self, figure_traces, name, target):
        """Same grid step -> same optimum, bit for bit (incl. tie-breaks)."""
        table, oracle = _searches(figure_traces, name, target)
        assert table.best == oracle.best
        assert table.feasible == oracle.feasible
        assert table.scores == oracle.scores

    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v3"])
    def test_ten_times_fewer_frame_rescores_than_the_grid(self, figure_traces, name):
        """The table's full-frame label-match work is >= 10x below the
        oracle's evaluations x frames, for the same search."""
        table, oracle = _searches(figure_traces, name, 0.8)
        assert oracle.frame_rescores == oracle.evaluations * PROFILE_FRAMES
        assert table.frame_rescores * 10 <= oracle.frame_rescores

    def test_infeasible_target_reports_best_effort(self, figure_traces):
        table, oracle = _searches(figure_traces, "fig2-v1", 1.01)
        assert not table.feasible
        assert table.best == oracle.best
