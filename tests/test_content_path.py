"""Pins, properties and counting rules of the per-frame content path.

Report digests only see a run's aggregated F-score, so a drift in one
frame's labels surfaces three layers up, if at all.  This file looks at
the frames themselves:

* **pins** — a sha256 over every recorded frame's edge labels, cloud
  labels, per-label match outcome/overlap, observed labels, ``(tp, fp,
  fn)`` and ``corrections`` for three seeded runs, captured before the
  path was rebuilt around :class:`~repro.detection.matching.FrameOverlaps`
  (they must never move, under any ``PYTHONHASHSEED``);
* **property** — on random label sets (nested boxes, exact ties,
  zero-area boxes, duplicate detections, empty sets) the table's answer
  for *every* confidence-cutoff subset, sent and unsent, equals a
  reference written here over the scalar ``overlap_ratio``, and
  ``ThresholdEvaluator`` equals its per-pair re-match oracle;
* **counting rule** — a frame's box geometry is computed once: at most
  one table per frame on the live path of both pipelines, one per
  profiled frame in the tuner however many states it scores, and a
  bounded number of ``BoundingBox`` constructions per frame.
"""

from __future__ import annotations

import hashlib

import pytest
from helpers import ReferenceEvaluator
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.system import ClusterSystem, hotspot_bank_factory
from repro.core.optimizer import ThresholdEvaluator
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.core.system import CroesusSystem
from repro.core.thresholds import ThresholdPolicy
from repro.detection.geometry import BoundingBox, overlap_ratio
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import (
    FrameOverlaps,
    MatchOutcome,
    _box_rows,
    _overlap_pass,
    match_labels,
)
from repro.detection.metrics import AccuracyReport, evaluate_detections
from repro.experiments import get_scenario, run
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config, build_single_config
from repro.video.library import make_video


# -- running a scenario with its system kept ------------------------------------
def _run_cluster(spec):
    """Run a cluster ``spec``; returns (per-stream results, run result, match overlap)."""
    config = build_cluster_config(spec)
    bank_factory = None
    if spec.workload == "hotspot":
        bank_factory = hotspot_bank_factory(spec.seed, key_range=spec.hot_key_range)
    result = ClusterSystem(config, bank_factory=bank_factory).run(build_streams(spec))
    return result.per_stream, result, config.base.match_overlap


def _run_single(spec):
    config = build_single_config(spec)
    video = make_video(spec.video, num_frames=spec.frames, seed=config.seed)
    result = CroesusSystem(config).run(video)
    return {video.name: result}, result, config.match_overlap


# -- per-frame content pins -------------------------------------------------------
def _label_rows(detections):
    return [
        (d.name, d.confidence, d.box.x_min, d.box.y_min, d.box.x_max, d.box.y_max, d.object_id)
        for d in detections
    ]


def _content_digest(per_stream, match_overlap) -> str:
    digest = hashlib.sha256()
    for stream in sorted(per_stream):
        for trace in per_stream[stream].traces:
            report = match_labels(trace.edge_labels, trace.cloud_labels, min_overlap=match_overlap)
            accuracy = trace.accuracy
            row = (
                stream,
                trace.frame_id,
                trace.sent_to_cloud,
                _label_rows(trace.edge_labels),
                _label_rows(trace.cloud_labels),
                [
                    (m.outcome.value, m.overlap, None if m.cloud is None else _label_rows([m.cloud]))
                    for m in report.matches
                ],
                _label_rows(report.unmatched_cloud),
                trace.observed_labels.model_name,
                _label_rows(trace.observed_labels),
                (accuracy.true_positives, accuracy.false_positives, accuracy.false_negatives),
                trace.corrections,
            )
            digest.update(repr(row).encode())
    return digest.hexdigest()


CONTENT_PINS = {
    # MS-IA, YCSB, 2 edges x 4 streams x 6 frames: the cluster pipeline.
    "cluster-small": (
        lambda: _run_cluster(get_scenario("cluster-small")),
        "57046a09fc229cb2fa1642519b8b074c1f9e2eecdcd29a87ffc49894115a3cf6",
    ),
    # The paper's single-edge MS-SR setup: the CroesusSystem pipeline.
    "fig4-ms-sr": (
        lambda: _run_single(get_scenario("fig4-ms-sr").with_(frames=30)),
        "cf92f19f0f329d28ed428c6e31cd707daf46154b1a24d70678f22a9728a3d275",
    ),
    # Per-stream retuning: drifting thresholds decide what each frame shows.
    "adaptive-thresholds": (
        lambda: _run_cluster(get_scenario("adaptive-thresholds").with_(frames=16)),
        "1ee7cfb55b746373086a9f475c7535de5a5567293568ba4f0c3eed4cdcd51f7e",
    ),
}


@pytest.mark.parametrize("name", sorted(CONTENT_PINS))
def test_per_frame_content_is_pinned(name):
    run, expected = CONTENT_PINS[name]
    per_stream, _, match_overlap = run()
    assert _content_digest(per_stream, match_overlap) == expected


def test_adaptive_trajectory_is_pinned():
    """The tuner reads the same frames: where it ends up must not move either."""
    _, result, _ = CONTENT_PINS["adaptive-thresholds"][0]()
    fields = result.adaptation
    assert fields["adaptation"]["stream_thresholds"] == {
        "cam0-v1": [0.5, 0.55],
        "cam1-v2": [0.0, 0.45],
        "cam2-v3": [0.55, 0.85],
        "cam3-v4": [0.35, 0.4],
    }
    assert fields["threshold_updates"] == 15
    assert fields["tuner_evaluations"] == 4410
    assert fields["tuner_frame_rescores"] == 343


# -- the table against a scalar reference ------------------------------------------
#
# Coordinates come from a coarse grid so that boxes nest, tie exactly,
# degenerate to zero area and repeat; a few free floats keep the float
# arithmetic honest.

_coordinates = st.one_of(
    st.sampled_from([0.0, 10.0, 20.0, 30.0, 40.0]),
    st.floats(0.0, 40.0, allow_nan=False),
)
_boxes = st.tuples(_coordinates, _coordinates, _coordinates, _coordinates).map(
    lambda c: BoundingBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)
# Confidences keep three decimals: the evaluator and its oracle cache
# scores under thresholds rounded to six.
_confidences = st.one_of(
    st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False).map(lambda value: round(value, 3)),
)
_detections = st.builds(Detection, st.sampled_from(["car", "bus"]), _confidences, _boxes)
# Lists of detections with repeats drawn in: the same object twice is a
# duplicate detection.
_detection_lists = st.lists(_detections, max_size=6).flatmap(
    lambda ds: st.lists(st.sampled_from(ds), max_size=7) if ds else st.just([])
)
_min_overlaps = st.sampled_from([0.0, 0.1, 0.5, 1.0])


def _hits(a: Detection, b: Detection, min_overlap: float) -> float | None:
    """The box-pair rule, scalar: a positive overlap that is >= min_overlap."""
    overlap = overlap_ratio(a.box, b.box)
    return overlap if overlap > 0.0 and overlap >= min_overlap else None


def _reference_match(survivors, cloud, min_overlap):
    """[(outcome, overlap, cloud index | None)] per survivor + unmatched cloud indices."""
    matches = []
    claimed = set()
    for detection in survivors:
        best_index, best_overlap = None, 0.0
        for index, candidate in enumerate(cloud):
            overlap = _hits(detection, candidate, min_overlap)
            if overlap is not None and overlap > best_overlap:
                best_index, best_overlap = index, overlap
        if best_index is None:
            matches.append((MatchOutcome.MISSING, 0.0, None))
            continue
        claimed.add(best_index)
        same = cloud[best_index].name == detection.name
        outcome = MatchOutcome.CONFIRMED if same else MatchOutcome.CORRECTED
        matches.append((outcome, best_overlap, best_index))
    return matches, [index for index in range(len(cloud)) if index not in claimed]


def _reference_view(survivors, cloud, sent, min_overlap):
    """The labels the client sees, by the scalar rule."""
    if not sent:
        return list(survivors)
    matches, unmatched = _reference_match(survivors, cloud, min_overlap)
    view = []
    for detection, (outcome, _, index) in zip(survivors, matches):
        if outcome is MatchOutcome.CONFIRMED:
            view.append(detection)
        elif outcome is MatchOutcome.CORRECTED:
            view.append(cloud[index])
    return view + [cloud[index] for index in unmatched]


def _reference_score(view, truth, min_overlap):
    claimed = set()
    true_positives = 0
    for prediction in view:
        for index, label in enumerate(truth):
            if index in claimed or label.name != prediction.name:
                continue
            if _hits(prediction, label, min_overlap) is not None:
                claimed.add(index)
                true_positives += 1
                break
    return (true_positives, len(view) - true_positives, len(truth) - len(claimed))


def _cutoff_subsets(edge):
    """Row lists of every confidence-cutoff subset, the empty one included."""
    cutoffs = sorted({detection.confidence for detection in edge}) + [2.0]
    return [
        [row for row, detection in enumerate(edge) if detection.confidence >= cutoff]
        for cutoff in cutoffs
    ]


def _same_objects(actual, expected) -> bool:
    return len(actual) == len(expected) and all(a is b for a, b in zip(actual, expected))


@given(_detection_lists, _detection_lists, _min_overlaps)
@settings(max_examples=200, deadline=None)
def test_table_equals_scalar_reference_on_every_cutoff_subset(edge, cloud, min_overlap):
    edge, cloud = tuple(edge), tuple(cloud)
    table = FrameOverlaps(edge, cloud, min_overlap)
    cloud_labels = LabelSet(0, cloud, "cloud")
    for rows in _cutoff_subsets(edge):
        survivors = [edge[row] for row in rows]
        matches, unmatched = _reference_match(survivors, cloud, min_overlap)

        # Row selection on the full table == matching the subset from scratch.
        for row, detection, (outcome, overlap, index) in zip(rows, survivors, matches):
            assert table.overlaps[row] == overlap
            assert table.best[row] == (-1 if index is None else index)
            assert table.confirmed[row] == (outcome is MatchOutcome.CONFIRMED)
            expected = {MatchOutcome.MISSING: None, MatchOutcome.CONFIRMED: detection}.get(
                outcome, None if index is None else cloud[index]
            )
            assert table.corrected(row) is expected

        # The public function over the subset label set says the same.
        report = match_labels(LabelSet(0, tuple(survivors), "edge"), cloud_labels, min_overlap)
        assert [(m.outcome, m.overlap) for m in report.matches] == [m[:2] for m in matches]
        assert _same_objects([m.edge for m in report.matches], survivors)
        assert _same_objects(
            [m.cloud for m in report.matches],
            [None if index is None else cloud[index] for _, _, index in matches],
        )
        assert _same_objects(report.unmatched_cloud, [cloud[index] for index in unmatched])

        for sent in (False, True):
            expected_view = _reference_view(survivors, cloud, sent, min_overlap)
            expected_score = _reference_score(expected_view, cloud, min_overlap)
            picks, score = table.client_view(rows, sent)
            # A pick i >= 0 is edge label i, ~j cloud label j.
            view = [edge[pick] if pick >= 0 else cloud[~pick] for pick in picks]
            assert _same_objects(view, expected_view)
            assert score == expected_score
            standalone = evaluate_detections(
                LabelSet(0, tuple(expected_view), "view"), cloud_labels, min_overlap
            )
            assert standalone == AccuracyReport(*expected_score)


# Signed zeros too: the table lists a hit in both rows of a pair, so the
# rule must not depend on which box of the pair comes first.
_table_coordinates = st.one_of(
    st.sampled_from([-0.0, 0.0, 10.0, 20.0, 30.0]), st.floats(0.0, 30.0, allow_nan=False)
)
_table_detections = st.builds(
    Detection,
    st.sampled_from(["car", "bus"]),
    st.just(0.5),
    st.tuples(_table_coordinates, _table_coordinates, _table_coordinates, _table_coordinates).map(
        lambda c: BoundingBox(
            min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])
        )
    ),
)


@given(
    st.lists(_table_detections, max_size=7).flatmap(
        lambda ds: st.lists(st.sampled_from(ds), max_size=9) if ds else st.just([])
    ),
    _min_overlaps,
)
@settings(max_examples=300, deadline=None)
def test_cloud_table_rows_are_the_one_row_passes(cloud, min_overlap):
    """The cloud-against-cloud table compares each same-name pair once;
    every row is what a 1 x N ``_overlap_pass`` of that cloud label gives
    (zero-area boxes, duplicates and ``min_overlap = 0`` included), and
    the unlabelled table shares it."""
    table = FrameOverlaps((), tuple(cloud), min_overlap)
    rows = _box_rows(cloud)
    cloud_table = table._cloud_table()
    assert len(cloud_table) == len(cloud)
    for index in range(len(rows)):
        assert cloud_table[index] == _overlap_pass(rows[index : index + 1], rows, min_overlap)[3][0]
    assert table._cloud_table() is cloud_table
    assert table.unlabelled()._cloud_table() is cloud_table


def _trace(frame_id, edge, cloud):
    edge_labels = LabelSet(frame_id, tuple(edge), "edge")
    return FrameTrace.from_labels(
        frame_id=frame_id,
        edge_labels=edge_labels,
        cloud_labels=LabelSet(frame_id, tuple(cloud), "cloud"),
        observed_labels=edge_labels,
        sent_to_cloud=True,
        latency=LatencyBreakdown(edge_detection=0.01, cloud_detection=0.1),
        accuracy=AccuracyReport(0, 0, 0),
    )


@given(
    st.lists(st.tuples(_detection_lists, _detection_lists), min_size=1, max_size=4),
    _min_overlaps,
)
@settings(max_examples=60, deadline=None)
def test_scorer_equals_evaluator_and_reference_on_overlapping_boxes(frames, min_overlap):
    traces = [_trace(frame_id, edge, cloud) for frame_id, (edge, cloud) in enumerate(frames)]
    evaluator = ThresholdEvaluator(traces, match_overlap=min_overlap)
    oracle = ReferenceEvaluator(traces, match_overlap=min_overlap)
    levels = sorted({d.confidence for edge, _ in frames for d in edge} | {0.0, 1.0})
    for lower in levels:
        for upper in levels:
            if lower > upper:
                continue
            score = evaluator.evaluate(lower, upper)
            assert score == oracle.evaluate(lower, upper)
            policy = ThresholdPolicy(lower, upper)
            totals = [0, 0, 0]
            for trace in traces:
                edge, cloud = trace.edge_labels.detections, trace.cloud_labels.detections
                survivors = [d for d in edge if d.confidence >= lower]
                sent = policy.should_validate(edge)
                view = _reference_view(survivors, cloud, sent, min_overlap)
                for slot, count in enumerate(_reference_score(view, cloud, min_overlap)):
                    totals[slot] += count
            assert score.f_score == AccuracyReport(*totals).f_score


def test_disjoint_same_name_boxes_never_hit_at_zero_min_overlap():
    """``match_overlap = 0`` is a value ``CroesusConfig`` accepts; the matcher
    and the scorer used to disagree there (MISSING, yet a true positive)."""
    edge = LabelSet(0, (Detection("car", 0.9, BoundingBox(0, 0, 10, 10)),), "edge")
    cloud = LabelSet(0, (Detection("car", 0.9, BoundingBox(100, 100, 110, 110)),), "cloud")
    report = match_labels(edge, cloud, min_overlap=0.0)
    assert report.matches[0].outcome is MatchOutcome.MISSING
    assert evaluate_detections(edge, cloud, min_overlap=0.0) == AccuracyReport(0, 1, 1)
    # Touching boxes share an edge, not an area.
    touching = LabelSet(0, (Detection("car", 0.9, BoundingBox(10, 0, 20, 10)),), "cloud")
    assert evaluate_detections(edge, touching, min_overlap=0.0) == AccuracyReport(0, 1, 1)
    # Any positive overlap still counts at 0.
    grazing = LabelSet(0, (Detection("car", 0.9, BoundingBox(9.5, 0, 20, 10)),), "cloud")
    assert evaluate_detections(edge, grazing, min_overlap=0.0) == AccuracyReport(1, 0, 0)


# -- the counting rule -------------------------------------------------------------
def _count_constructions(monkeypatch, cls) -> list[int]:
    count = [0]
    original = cls.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return count


@pytest.mark.parametrize("name", ["cluster-small", "fig4-ms-sr"])
def test_live_path_builds_at_most_one_table_per_frame(name, monkeypatch):
    tables = _count_constructions(monkeypatch, FrameOverlaps)
    per_stream, _, _ = CONTENT_PINS[name][0]()
    frames = sum(result.num_frames for result in per_stream.values())
    validated = sum(
        trace.sent_to_cloud for result in per_stream.values() for trace in result.traces
    )
    assert 0 < validated <= tables[0] <= frames


def test_tuner_builds_one_table_per_profiled_frame(monkeypatch):
    per_stream, _, match_overlap = CONTENT_PINS["fig4-ms-sr"][0]()
    (result,) = per_stream.values()
    tables = _count_constructions(monkeypatch, FrameOverlaps)
    evaluator = ThresholdEvaluator(result.traces, match_overlap=match_overlap)
    evaluator.evaluate_grid(0.05)
    evaluator.evaluate(0.33, 0.77)
    assert tables[0] == len(result.traces)
    # ...while many more decision states than frames were scored off them.
    assert evaluator.frame_rescores > 3 * len(result.traces)


def test_adaptive_run_builds_one_table_per_frame_shared_with_the_tuner(monkeypatch):
    """The retune tuner scores a validated frame's decision states on the
    table the frame's final stage built — it builds none of its own."""
    tables = _count_constructions(monkeypatch, FrameOverlaps)
    per_stream, result, _ = CONTENT_PINS["adaptive-thresholds"][0]()
    traces = [trace for run in per_stream.values() for trace in run.traces]
    validated = sum(trace.sent_to_cloud for trace in traces)
    assert result.adaptation["tuner_frame_rescores"] > validated
    assert 0 < validated <= tables[0] <= len(traces)


def test_boxes_constructed_per_frame_are_bounded(monkeypatch):
    """The scene steps each object with one box and the detector jitters a
    detection with one box: 36.8 per frame on the content of the ``geo-wan``
    bench workload (``geo-baseline`` at 140 frames), where it took 72.1."""
    spec = get_scenario("geo-baseline").with_(seed=2022000, frames=140)
    boxes = _count_constructions(monkeypatch, BoundingBox)
    report = run(spec)
    assert report.frames == spec.streams * spec.frames
    assert boxes[0] / report.frames <= 40.0
