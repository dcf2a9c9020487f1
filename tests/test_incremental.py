"""Tests for the incremental threshold scorer and coordinate descent.

The contract under test is exactness: ``IncrementalThresholdScorer`` is
a *performance* rewrite of ``ThresholdEvaluator.evaluate`` — every score
it returns, pair by pair or off its running grid table, must be
bit-identical to the evaluator's, and ``coordinate_descent_search`` must
return the same optimum as ``brute_force_search`` (same grid, same
tie-breaks) while re-matching far fewer frames.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CroesusConfig
from repro.core.incremental import IncrementalThresholdScorer, coordinate_descent_search
from repro.core.optimizer import ThresholdEvaluator, brute_force_search
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelSet
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
            FrameTrace(
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
        """One score, arbitrary trace set: scorer == evaluator, exactly."""
        lower, upper = pair
        evaluator = ThresholdEvaluator(_build_traces(contents))
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        assert scorer.evaluate(lower, upper) == evaluator.evaluate(lower, upper)

    @given(trace_lists, st.lists(threshold_pairs, min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_along_threshold_walks(self, contents, walk):
        """A walk re-uses per-frame sufficient statistics; every step must
        still reproduce the evaluator's score bit for bit."""
        evaluator = ThresholdEvaluator(_build_traces(contents))
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        for lower, upper in walk:
            assert scorer.evaluate(lower, upper) == evaluator.evaluate(lower, upper)

    @given(trace_lists, trace_lists, threshold_pairs)
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_after_incremental_adds(self, contents, more, pair):
        """Frames added after scoring started are folded in exactly."""
        lower, upper = pair
        initial = _build_traces(contents)
        evaluator = ThresholdEvaluator(initial)
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        scorer.evaluate(lower, upper)  # warm the per-frame statistics

        added = _build_traces(contents + more)[len(initial):]
        for trace in added:
            scorer.add_frame(trace)
        reference = ThresholdEvaluator(initial + added)
        assert scorer.evaluate(lower, upper) == reference.evaluate(lower, upper)

    def test_profiled_video_scores_match_on_the_full_grid(self):
        """Real profiled traces, every grid pair: still bit-identical."""
        evaluator = ThresholdEvaluator.profile(CroesusConfig(seed=4), "v1", num_frames=40)
        scorer = IncrementalThresholdScorer.from_evaluator(evaluator)
        for reference in evaluator.evaluate_grid(step=0.1):
            assert scorer.evaluate(reference.lower, reference.upper) == reference


# -- the running grid table ----------------------------------------------------

#: A search point: (history length to grow to, grid step, F-score target).
search_points = st.tuples(
    st.integers(1, 12), st.sampled_from([0.05, 0.1]), st.sampled_from([0.5, 0.8, 1.01])
)


class TestGridTable:
    @given(trace_lists, st.lists(search_points, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_adds_and_searches_match_brute_force(self, contents, points):
        """Any interleaving of ``add_frame`` and searches (the step may
        change between them): the table's scores, and the search result,
        are those of a from-scratch brute force over the same history."""
        traces = _build_traces(contents)
        scorer = IncrementalThresholdScorer()
        for length, step, target in points:
            length = min(length, len(traces))
            for trace in traces[scorer.num_frames:length]:
                scorer.add_frame(trace)
            history = traces[:scorer.num_frames]  # never shrinks

            result = coordinate_descent_search(scorer, target_f_score=target, step=step)
            brute = brute_force_search(ThresholdEvaluator(history), target, step=step)
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
        trace-ordered list gives the evaluator on this interpreter."""
        latencies = [1e16, 1.0, -1e16, 1.0, 3.0, 1e16, 1.0, -1e16]
        assert reduce(add, latencies) != math.fsum(latencies)  # the case discriminates
        traces = [
            FrameTrace(
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
        evaluator = ThresholdEvaluator(traces)
        scorer = IncrementalThresholdScorer()
        for trace in traces[:5]:
            scorer.add_frame(trace)
        coordinate_descent_search(scorer, target_f_score=0.8, step=0.1)
        for trace in traces[5:]:
            scorer.add_frame(trace)
        result = coordinate_descent_search(scorer, target_f_score=0.8, step=0.1)
        assert list(result.scores) == evaluator.evaluate_grid(step=0.1)
        # Sent and unsent frames carry different latencies, so the
        # per-pair averages really are re-summed per sent pattern.
        assert len({score.average_final_latency for score in result.scores}) > 1

    def test_searching_an_empty_scorer_raises_like_evaluate(self):
        message = "cannot evaluate thresholds without any frame traces"
        with pytest.raises(ValueError, match=message):
            IncrementalThresholdScorer().evaluate(0.3, 0.7)
        with pytest.raises(ValueError, match=message):
            coordinate_descent_search(IncrementalThresholdScorer(), target_f_score=0.8)

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.6])
    def test_invalid_step_is_rejected_before_any_table_exists(self, step):
        scorer = IncrementalThresholdScorer(_build_traces([([(0, 0.5)], [0], 0.1, 0.1)]))
        with pytest.raises(ValueError, match="grid step"):
            coordinate_descent_search(scorer, target_f_score=0.8, step=step)
        # A failed search leaves no half-built table behind.
        assert coordinate_descent_search(scorer, target_f_score=0.8, step=0.1).evaluations == 55


# -- coordinate descent vs brute force ----------------------------------------

#: Frames profiled per fig2 video (the scenarios' 80 halved for speed).
PROFILE_FRAMES = 40


@pytest.fixture(scope="module")
def figure_evaluators() -> dict[str, ThresholdEvaluator]:
    """Profiled evaluators of the paper's fig2/table1 videos."""
    evaluators = {}
    for name in ("fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"):
        spec = get_scenario(name)
        evaluators[name] = ThresholdEvaluator.profile(
            build_single_config(spec), spec.video, num_frames=PROFILE_FRAMES
        )
    return evaluators


class TestCoordinateDescent:
    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v2", "fig2-v3", "fig2-v4"])
    @pytest.mark.parametrize("target", [0.7, 0.8, 0.9])
    def test_matches_brute_force_optimum_exactly(self, figure_evaluators, name, target):
        """Same grid step -> same optimum, bit for bit (incl. tie-breaks)."""
        evaluator = figure_evaluators[name]
        brute = brute_force_search(evaluator, target_f_score=target, step=0.05)
        descent = coordinate_descent_search(evaluator, target_f_score=target, step=0.05)
        assert descent.best == brute.best
        assert descent.feasible == brute.feasible

    @pytest.mark.parametrize("name", ["fig2-v1", "fig2-v3"])
    def test_ten_times_fewer_frame_rescores_than_the_grid(self, figure_evaluators, name):
        """The ISSUE's perf gate: descent's full-frame label-match work is
        >= 10x below the exhaustive grid's evaluations x frames."""
        evaluator = figure_evaluators[name]
        descent = coordinate_descent_search(evaluator, target_f_score=0.8, step=0.05)
        grid_rescores = descent.evaluations * PROFILE_FRAMES
        assert descent.frame_rescores * 10 <= grid_rescores

    def test_infeasible_target_reports_best_effort(self, figure_evaluators):
        evaluator = figure_evaluators["fig2-v1"]
        brute = brute_force_search(evaluator, target_f_score=1.01, step=0.05)
        descent = coordinate_descent_search(evaluator, target_f_score=1.01, step=0.05)
        assert not descent.feasible
        assert descent.best == brute.best
