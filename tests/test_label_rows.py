"""A recorded frame keeps its labels as packed rows.

``FrameTrace`` keeps a frame's ``Le`` and ``Lc`` as one
:class:`~repro.detection.labels.LabelRow` each — frame id, model name,
one tuple of names and object ids, one ``bytes`` of doubles — and what
the client observed as ``Le``'s own row or as a
:class:`~repro.detection.labels.ViewRow` of picks into the two rows.  It
renders an equal ``LabelSet`` on every read.  This file holds that to:

* **round trip** — pack then render gives an equal label set with the
  same ``repr`` (which tells ``-0.0`` from ``0.0``), on random label sets;
  every observed-view shape the frame body records renders from its
  picks as the set of the picked labels;
* **counting** — recording a frame (and working out its view) builds no
  ``Detection``, ``BoundingBox`` or ``LabelSet`` and renders nothing,
  each read renders them, and every rendered set equals the one the
  frame body's labels make; the offline tuners render each profiled set
  once however many pairs they score;
* **retention** — a ceiling on the bytes a recording cluster run keeps in
  its traces per recorded detection, and no label kept by the retune
  tuner.

CI runs this file under two ``PYTHONHASHSEED`` values: rows are hashed
by value.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.system import ClusterSystem
from repro.core.adaptive import AdaptationManager
from repro.core.config import CroesusConfig
from repro.core.optimizer import ThresholdEvaluator
from repro.core import pipeline
from repro.core.pipeline import TraceSink
from repro.core.results import FrameTrace, LatencyBreakdown
from repro.detection.geometry import BoundingBox
from repro.detection.labels import Detection, LabelRow, LabelSet, ViewRow
from repro.detection.matching import FrameOverlaps
from repro.detection.metrics import AccuracyReport
from repro.experiments import get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config

from helpers import count_constructions


# -- pack -> render round trip ---------------------------------------------------
#: Floats that round-trip only if every bit does: signed zeros, the
#: smallest subnormals and the smallest normal.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
_coordinates = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-1e4, 1e4))
_confidences = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0]), st.floats(0.0, 1.0))
_boxes = st.tuples(_coordinates, _coordinates, _coordinates, _coordinates).map(
    lambda c: BoundingBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
)
_detections = st.builds(
    Detection,
    st.sampled_from(["car", "bus", "person"]),
    _confidences,
    _boxes,
    st.one_of(st.none(), st.integers(0, 2**40)),
)
_label_sets = st.builds(
    LabelSet,
    st.integers(0, 10**6),
    st.lists(_detections, max_size=6).map(tuple),
    st.sampled_from(["edge", "cloud", ""]),
)


def _same(rendered: LabelSet, original: LabelSet) -> bool:
    """Equal, and equal to the bit: ``repr`` tells ``-0.0`` from ``0.0``."""
    return rendered == original and repr(rendered) == repr(original)


@given(_label_sets)
@settings(max_examples=300, deadline=None)
def test_pack_then_render_is_the_label_set(labels):
    row = LabelRow.pack(labels)
    assert _same(row.render(), labels)
    assert row.render() is not row.render()
    twin = LabelRow.pack(row.render())
    assert twin == row and hash(twin) == hash(row)
    assert pickle.loads(pickle.dumps(row)) == row
    assert len(row.keys) == 2 * len(labels) and len(row.values) == 40 * len(labels)


def _view_of(picks, edge: LabelSet, cloud: LabelSet, model_name: str) -> LabelSet:
    """The label set a view of picks shows: ``i >= 0`` is ``Le[i]``, ``~j`` ``Lc[j]``."""
    return LabelSet(
        edge.frame_id,
        tuple(edge.detections[p] if p >= 0 else cloud.detections[~p] for p in picks),
        model_name,
    )


@given(_label_sets, _label_sets, st.sampled_from([0.0, 0.1, 0.5]))
@settings(max_examples=150, deadline=None)
def test_every_observed_view_round_trips_through_a_trace(edge, cloud, min_overlap):
    """The views the frame body records: ``Le`` itself (its row shared),
    the empty view, an unvalidated subset of ``Le`` and a validated view
    (confirmed edge labels, the cloud's label for corrected ones, then the
    unmatched cloud labels), for every confidence cutoff — the last three
    as picks into ``Le`` / ``Lc``."""
    overlaps = FrameOverlaps(edge.detections, cloud.detections, min_overlap)
    unlabelled = overlaps.unlabelled()  # what the retune tuner keeps: it scores alike
    views = [
        (edge, edge),
        (ViewRow(edge.frame_id, edge.model_name, ()), LabelSet(edge.frame_id, (), edge.model_name)),
    ]
    for cutoff in sorted({detection.confidence for detection in edge}) + [2.0]:
        rows = [row for row, detection in enumerate(edge) if detection.confidence >= cutoff]
        for sent in (False, True):
            picks, counts = overlaps.client_view(rows, sent)
            assert unlabelled.client_view(rows, sent) == (picks, counts)
            model = "croesus-observed" if sent else edge.model_name
            view = ViewRow(edge.frame_id, model, tuple(picks))
            views.append((view, _view_of(picks, edge, cloud, model)))
    for observed, expected in views:
        fields = dict(sent_to_cloud=True, latency=LatencyBreakdown(), accuracy=AccuracyReport(0, 0, 0))
        trace = FrameTrace.from_labels(edge.frame_id, edge, cloud, observed, **fields)
        assert _same(trace.edge_labels, edge)
        assert _same(trace.cloud_labels, cloud)
        assert _same(trace.observed_labels, expected)
        assert _same(LabelRow.pack(expected).render(), trace.observed_labels)
        assert (trace.observed_row is trace.edge_row) == (observed is edge)
        assert (trace.observed_row is observed) == (type(observed) is ViewRow)
        rebuilt = FrameTrace.from_labels(
            edge.frame_id,
            trace.edge_labels,
            trace.cloud_labels,
            observed if type(observed) is ViewRow else trace.observed_labels,
            **fields,
        )
        assert rebuilt == trace and hash(rebuilt) == hash(trace)


# -- counting ----------------------------------------------------------------------
def _count_renders(monkeypatch, row_type=LabelRow) -> list[int]:
    count = [0]
    render = row_type.render

    def counting(self, *rows):
        count[0] += 1
        return render(self, *rows)

    monkeypatch.setattr(row_type, "render", counting)
    return count


def _recorded_cluster_run(spec):
    return ClusterSystem(build_cluster_config(spec)).run(build_streams(spec)).per_stream


@pytest.mark.parametrize(
    "spec",
    [get_scenario("cluster-small"), get_scenario("adaptive-thresholds").with_(frames=16)],
    ids=["cluster-small", "adaptive-thresholds"],
)
def test_recording_builds_no_label_object_and_each_read_renders_them(spec, monkeypatch):
    """The adaptive cell covers the retune tuner's path: it is handed the
    live labels' table, so no row is rendered during the run."""
    built = count_constructions(monkeypatch, Detection, BoundingBox, LabelSet)
    renders = _count_renders(monkeypatch)
    view_renders = _count_renders(monkeypatch, ViewRow)
    observe = pipeline.observed_labels
    record_frame = TraceSink.record_frame
    live = []
    views_worked_out = [0]

    def observing(*args):
        before = dict(built)
        outcome = observe(*args)
        assert built == before
        views_worked_out[0] += 1
        return outcome

    def recording(self, result, edge_id, initial, initial_done, final, final_done,
                  cloud_labels, observed, *rest):
        before = dict(built)
        trace = record_frame(self, result, edge_id, initial, initial_done, final, final_done,
                             cloud_labels, observed, *rest)
        assert built == before
        if type(observed) is ViewRow:
            assert trace.observed_row is observed
            observed = _view_of(observed.picks, initial.labels, cloud_labels, observed.model_name)
        else:
            assert observed is initial.labels and trace.observed_row is trace.edge_row
        live.append((trace, initial.labels, cloud_labels, observed))
        return trace

    monkeypatch.setattr(pipeline, "observed_labels", observing)
    monkeypatch.setattr(TraceSink, "record_frame", recording)
    per_stream = _recorded_cluster_run(spec)
    assert renders == view_renders == [0]
    assert len(live) == sum(len(result.traces) for result in per_stream.values()) > 0
    assert views_worked_out == [len(live)]
    for trace, *expected_sets in live:
        for name, expected in zip(("edge_labels", "cloud_labels", "observed_labels"), expected_sets):
            for _ in range(2):
                before = dict(built)
                rendered = getattr(trace, name)
                assert _same(rendered, expected) and rendered is not expected
                assert {key: built[key] - before[key] for key in built} == {
                    "Detection": len(expected),
                    "BoundingBox": len(expected),
                    "LabelSet": 1,
                }
    views = sum(1 for trace, *_ in live if type(trace.observed_row) is ViewRow)
    assert 0 < views < len(live)
    assert renders[0] == 4 * len(live) + 2 * (len(live) - views)
    assert view_renders[0] == 2 * views


@pytest.mark.parametrize("method", ["brute", "all"])
def test_a_tune_renders_each_profiled_label_set_once(method, monkeypatch, capsys):
    """``ThresholdEvaluator`` renders a trace's edge and cloud labels once,
    to build its overlap table, and every search reuses that table."""
    renders = _count_renders(monkeypatch)
    argv = ["tune", "--video", "v1", "--frames", "30", "--method", method, "--step", "0.05"]
    assert main(argv) == 0
    assert renders == [2 * 30]


def test_the_offline_scorer_renders_each_profiled_label_set_once(monkeypatch):
    renders = _count_renders(monkeypatch)
    evaluator = ThresholdEvaluator.profile(CroesusConfig(seed=4), "v1", num_frames=20)
    evaluator.evaluate_grid(0.05)
    evaluator.evaluate(0.33, 0.77)
    evaluator.best_of_grid(0.1, 0.8)
    assert renders == [2 * 20]


# -- retention ---------------------------------------------------------------------
#: Bytes a recording ``cluster-small`` run (40 frames per stream) keeps in
#: its frame traces per recorded detection (edge + cloud + observed;
#: tracemalloc, what dropping the traces frees): 204.4 with a
#: ``Detection`` and a ``BoundingBox`` per label, 101.7 as packed rows,
#: 85.6 with the observed view as picks into the edge and cloud rows.
#: The ceiling keeps the retained-bytes-per-operation guard's 1.30x headroom.
RETAINED_BYTES_PER_RECORDED_DETECTION_CEILING = 132


def test_a_recording_cluster_run_keeps_few_bytes_per_recorded_detection():
    spec = get_scenario("cluster-small").with_(frames=40)
    _recorded_cluster_run(spec)  # first use: imports and memo tables
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        per_stream = _recorded_cluster_run(spec)
        traces = [trace for result in per_stream.values() for trace in result.traces]
        detections = sum(
            len(trace.edge_labels) + len(trace.cloud_labels) + len(trace.observed_labels)
            for trace in traces
        )
        del traces
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        for result in per_stream.values():
            result.traces.clear()
        gc.collect()
        freed = kept - tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    assert detections > 3000
    assert freed / detections < RETAINED_BYTES_PER_RECORDED_DETECTION_CEILING


def _reachable_detections(root) -> int:
    """``Detection``\\ s reachable from ``root`` (classes, modules and
    functions are not followed)."""
    seen: set[int] = set()
    stack = [root]
    found = 0
    while stack:
        value = stack.pop()
        if id(value) in seen or isinstance(value, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(value))
        found += type(value) is Detection
        stack.extend(gc.get_referents(value))
    return found


def test_the_retune_tuner_keeps_no_label_of_a_validated_frame(monkeypatch):
    """The tuner keeps each validated frame's overlap table for the rest of
    the run, but not the labels it was built on: the frame's trace holds
    those, packed."""
    managers = []
    adapt_all = AdaptationManager.adapt_all

    def keeping(self, now):
        managers.append(self)
        return adapt_all(self, now)

    monkeypatch.setattr(AdaptationManager, "adapt_all", keeping)
    _recorded_cluster_run(get_scenario("adaptive-thresholds").with_(frames=16))
    manager = managers[-1]
    assert manager.tuner_frame_rescores > 0
    assert _reachable_detections(manager) == 0
