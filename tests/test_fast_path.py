"""Engine hot path and bounded-memory fast path.

Covers the PR's perf machinery from below and from above:

* the one-path :class:`~repro.sim.engine.Server` must produce results
  identical to the preserved two-phase, O(n)-scan
  :class:`ReferenceServer` (the speedup is allowed to change constants,
  never outcomes);
* the streaming accumulators (:mod:`repro.analysis.streaming`) must match
  their exact list-based counterparts while exact, and stay within the
  promised error bound after spilling;
* ``record_frames`` selects what a cluster run *retains*, never what it
  simulates: one frame pipeline feeds either sink, so a non-recording
  run must agree with the recording one on every aggregate at every
  load (the quantile sketch's stated 1% above 4096 samples is the only
  deviation) — timelines, cloud queueing and batch flushes included —
  keep every typed run record, stay deterministic, and keep
  memory-bounded state (no per-frame rows, capped server records);
* the new :class:`~repro.experiments.spec.ScenarioSpec` fields must
  validate.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.analysis.streaming import QuantileAccumulator
from repro.cluster.system import ClusterSystem
from repro.detection.profiles import MODEL_LIBRARY
from repro.experiments import ScenarioSpec, get_scenario, run
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config
from repro.sim.engine import ReferenceServer, Server
from repro.sim.rng import RngRegistry
from repro.traffic.source import TrafficConfig, TrafficSource, percentile
from repro.video.library import VIDEO_LIBRARY, make_video


# -- one-path server vs the preserved reference implementation --------------
def _schedule(seed: int, jobs: int, rate: float, longest: float) -> list[tuple[float, float]]:
    """``jobs`` Poisson arrivals as ``(ready, service)`` pairs."""
    rng = random.Random(seed)
    schedule = []
    clock = 0.0
    for _ in range(jobs):
        clock += rng.expovariate(rate)
        schedule.append((clock, rng.uniform(0.0, longest)))
    return schedule


def _drive(server, schedule):
    """The frame pipeline's usage: ``acquire`` then ``finish``, per job;
    returns every ``(start, wait, end)``."""
    outcomes = []
    for ready, service in schedule:
        start, wait = server.acquire(ready)
        outcomes.append((start, wait, server.finish(start, service)))
    return outcomes


class TestServerMatchesReference:
    @pytest.mark.parametrize("discipline", ["fifo", "priority"])
    @pytest.mark.parametrize("capacity", [1, 2, None])
    def test_identical_outcomes_via_acquire_finish(self, discipline, capacity, monkeypatch):
        """The reference server routes every ``acquire`` through its own
        ``admit`` / ``_resolve`` and must still agree with the one-path
        server job for job, and on every statistic."""
        resolved = []
        original = ReferenceServer._resolve

        def counting_resolve(server, admission):
            resolved.append(admission)
            original(server, admission)

        monkeypatch.setattr(ReferenceServer, "_resolve", counting_resolve)
        for trial in range(10):
            schedule = _schedule(7 + trial, 80, 10.0, 0.3)
            fast = Server(capacity=capacity, discipline=discipline)
            reference = ReferenceServer(capacity=capacity, discipline=discipline)
            assert _drive(fast, schedule) == _drive(reference, schedule), trial
            assert len(resolved) == (trial + 1) * len(schedule)  # the reference really ran
            now = schedule[-1][0]
            assert (fast.jobs, fast.mean_wait, fast.max_wait, fast.busy_time) == (
                reference.jobs,
                reference.mean_wait,
                reference.max_wait,
                reference.busy_time,
            )
            assert fast.load(now) == pytest.approx(reference.load(now))
            assert fast.load(now, window=1.0) == pytest.approx(reference.load(now, window=1.0))

    @pytest.mark.parametrize("discipline", ["fifo", "priority"])
    def test_identical_outcomes_on_random_schedules(self, discipline):
        """The reference's two-phase ``admit`` with a random priority per
        job, each start read (and its job finished) before the next
        admit — the order the frame body always used — agrees with the
        one-path server: with nothing else pending, a priority has
        nothing to overtake, which is why ``acquire`` takes none."""
        rng = random.Random(7)
        for trial in range(20):
            schedule = _schedule(100 + trial, 50, 10.0, 0.3)
            capacity = rng.choice([1, 2, None])
            fast = Server(capacity=capacity, discipline=discipline)
            reference = ReferenceServer(capacity=capacity, discipline=discipline)
            two_phase = []
            for ready, service in schedule:
                admission = reference.admit(ready, priority=rng.randrange(3))
                start = admission.start
                two_phase.append((start, start - admission.ready, reference.finish(start, service)))
            assert _drive(fast, schedule) == two_phase, (discipline, trial)

    def test_identical_wait_statistics(self):
        """Two slots, four unit jobs: the first two start on arrival,
        the next two wait for the slots freed at 1.0 and 1.1."""
        schedule = [(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (0.3, 1.0)]
        fast = Server(capacity=2, discipline="priority")
        reference = ReferenceServer(capacity=2, discipline="priority")
        outcomes = _drive(fast, schedule)
        assert outcomes == _drive(reference, schedule)
        assert [start for start, _, _ in outcomes] == pytest.approx([0.0, 0.1, 1.0, 1.1])
        assert fast.jobs == reference.jobs == 4
        assert fast.mean_wait == reference.mean_wait == pytest.approx(0.4)
        assert fast.max_wait == reference.max_wait == pytest.approx(0.8)
        assert fast.busy_time == reference.busy_time == 4.0

    def test_priority_admission_overtakes_queued_batch(self):
        """The reference's own two-phase batch: a later high-priority
        admission starts before earlier ones, which then run in request
        order (the ``min()`` scan over ``(-priority, sequence)``)."""
        server = ReferenceServer(capacity=1, discipline="priority")
        a = server.admit(0.0, priority=0)
        b = server.admit(0.0, priority=0)
        c = server.admit(0.0, priority=1)
        # Reading any start resolves the whole batch in queue order.
        assert c.start == 0.0
        server.finish(c.start, 1.0)
        assert a.start == 1.0
        server.finish(a.start, 1.0)
        assert b.start == 2.0
        server.finish(b.start, 1.0)

    def test_fifo_ignores_priority(self):
        server = ReferenceServer(capacity=1, discipline="fifo")
        a = server.admit(0.0, priority=0)
        c = server.admit(0.0, priority=5)
        assert a.start == 0.0
        server.finish(a.start, 1.0)
        assert c.start == 1.0
        server.finish(c.start, 1.0)


class TestServerStreamingStats:
    #: Enough jobs that a ``record_jobs=False`` record is trimmed.
    JOBS = 3 * Server.INTERVAL_RETENTION

    def _loaded(self, record_jobs: bool) -> Server:
        server = Server(capacity=1, record_jobs=record_jobs)
        for index in range(self.JOBS):
            start, _ = server.acquire(index * 0.001)
            server.finish(start, 0.01)
        return server

    def test_streaming_wait_stats_match_full_recording(self):
        full = self._loaded(record_jobs=True)
        streaming = self._loaded(record_jobs=False)
        assert streaming.jobs == full.jobs == self.JOBS
        assert streaming.mean_wait == pytest.approx(full.mean_wait)
        assert streaming.max_wait == full.max_wait
        assert streaming.busy_time == full.busy_time

    def test_record_jobs_off_bounds_the_wait_list(self):
        """A non-recording server keeps no per-job wait at all, only its
        count / sum / max; a recording one keeps one wait per job."""
        streaming = self._loaded(record_jobs=False)
        assert streaming._waits is None
        assert streaming.jobs == self.JOBS
        assert len(self._loaded(record_jobs=True)._waits) == self.JOBS

    def test_interval_retention_caps_the_record(self):
        # Trimming happens in amortised blocks, so the live record sits
        # between the cap and twice the cap instead of exactly at it.
        capped = self._loaded(record_jobs=False)
        assert Server.INTERVAL_RETENTION <= len(capped._intervals) <= 2 * Server.INTERVAL_RETENTION
        uncapped = self._loaded(record_jobs=True)
        assert len(uncapped._intervals) == self.JOBS

    def test_whole_run_load_exact_despite_trimming(self):
        full = self._loaded(record_jobs=True)
        capped = self._loaded(record_jobs=False)
        now = self.JOBS * 0.01 + 0.1
        assert capped.load(now) == pytest.approx(full.load(now))
        # A window inside the retained tail sees exactly what the full record sees.
        assert capped.load(now, window=5.0) == full.load(now, window=5.0)


# -- streaming accumulators ---------------------------------------------------
class TestQuantileAccumulator:
    def test_exact_mode_matches_nearest_rank(self):
        rng = random.Random(3)
        values = [rng.lognormvariate(0.0, 1.5) for _ in range(1000)]
        accumulator = QuantileAccumulator(exact_limit=4096)
        for value in values:
            accumulator.add(value)
        assert accumulator._exact is not None  # still exact
        for q in (0.0, 50.0, 90.0, 95.0, 99.0, 100.0):
            assert accumulator.percentile(q) == percentile(values, q)

    def test_spilled_mode_stays_within_relative_error(self):
        rng = random.Random(5)
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(50_000)]
        accumulator = QuantileAccumulator(exact_limit=1024, relative_error=0.01)
        for value in values:
            accumulator.add(value)
        assert accumulator._exact is None  # spilled
        for q in (50.0, 90.0, 95.0, 99.0):
            exact = percentile(values, q)
            estimate = accumulator.percentile(q)
            assert abs(estimate - exact) / exact <= 0.02, q

    def test_deterministic_across_instances(self):
        values = [((index * 2654435761) % 1000) / 7.0 + 0.1 for index in range(10_000)]
        first = QuantileAccumulator(exact_limit=256)
        second = QuantileAccumulator(exact_limit=256)
        for value in values:
            first.add(value)
            second.add(value)
        for q in (50.0, 95.0, 99.0):
            assert first.percentile(q) == second.percentile(q)

    def test_non_positive_samples_tracked_exactly(self):
        accumulator = QuantileAccumulator(exact_limit=4)
        for value in (-1.0, 0.0, -2.5, 3.0, 4.0, 5.0):
            accumulator.add(value)
        assert accumulator._exact is None  # spilled
        assert accumulator.percentile(25.0) == 0.0  # the largest non-positive
        assert accumulator.percentile(100.0) == 5.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileAccumulator(exact_limit=0)
        with pytest.raises(ValueError):
            QuantileAccumulator(relative_error=1.5)
        with pytest.raises(ValueError):
            QuantileAccumulator().percentile(101.0)


# -- record_frames=False vs record_frames=True --------------------------------
#: Cells the two retention modes are compared on: scenario -> overrides.
#: ``light`` is the original ~25%-utilisation open-loop cell; the rest
#: cover overlap within a stream, overload with shedding/rejection, a
#: warm failover, online adaptation, a run past the quantile
#: accumulator's exact limit, runtime migration, a queueing cloud,
#: coordinator batch flushes, and a 400-frame failure + failover.
_AGREEMENT_CELLS = {
    "light": ("scale-stress-smoke", dict(offered_rate=3.0, duration_s=20.0, num_edges=20)),
    "cluster-small": ("cluster-small", {}),
    "sustained-overload": ("sustained-overload", dict(duration_s=40.0)),
    "replicated-failover": ("replicated-failover", {}),
    "adaptive-thresholds": ("adaptive-thresholds", {}),
    "scale-stress-smoke": ("scale-stress-smoke", {}),
    "cluster-migration": ("cluster-migration", {}),
    "cluster-finite-cloud": ("cluster-finite-cloud", {}),
    "cluster-batched-2pc": ("cluster-batched-2pc", dict(frames=300)),
    "failure-recovery": ("failure-recovery", dict(frames=400)),
}


@functools.lru_cache(maxsize=None)
def _report(cell: str, record_frames: bool):
    scenario, overrides = _AGREEMENT_CELLS[cell]
    return run(get_scenario(scenario).with_(record_frames=record_frames, **overrides))


@pytest.fixture(scope="module")
def light_fast_report():
    return _report("light", False)


@pytest.fixture(scope="module")
def light_recorded_report():
    return _report("light", True)


class TestFastPathAgreesWithRecordedPath:
    """``record_frames`` False vs True simulate the very same run.

    Before the cluster had one frame pipeline, the non-recording mode ran
    a stream's frames back-to-back (a closed loop), so beyond the light
    cell the two modes were different simulations — fast vs recorded:
    ``cluster-small`` p99 1612 vs 3390 ms, makespan 8.54 vs 3.56 s,
    F-score differing; ``sustained-overload`` (40 s) 448 vs 411 frames
    completed, p99 3489 vs 6893 ms; ``scale-stress-smoke`` p99 1028 vs
    1562 ms; ``replicated-failover`` makespan 42.2 vs 19.0 s, 196 vs 147
    transactions; ``adaptive-thresholds`` 38 vs 52 threshold updates.
    """

    @pytest.mark.parametrize("cell", list(_AGREEMENT_CELLS))
    def test_retention_modes_agree(self, cell):
        fast, recorded = _report(cell, False), _report(cell, True)
        assert fast.frames == recorded.frames > 0
        for name in (
            "streams",
            "f_score",
            "bandwidth_utilization",
            "makespan_s",
            "transactions",
            "aborts",
            "migrations",
            "promotions",
            "txns_aborted_by_failure",
            "threshold_updates",
            "tuner_evaluations",
            "shed_rate",
            "goodput_fps",
            "offered_load_fps",
            "admitted_load_fps",
        ):
            assert getattr(fast, name) == getattr(recorded, name), name
        if recorded.traffic is not None:
            for name in ("shed_frames", "rejected_streams", "completed_frames", "admitted_frames"):
                assert fast.traffic[name] == recorded.traffic[name], name
        if recorded.adaptation is not None:
            assert fast.adaptation["stream_thresholds"] == recorded.adaptation["stream_thresholds"]
        # The report's timelines come from the run's own records.
        for name in (
            "migration_events",
            "failure_events",
            "reshard_events",
            "replication",
            "batch_flushes",
        ):
            assert getattr(fast, name) == getattr(recorded, name), name
        for name in ("validations", "queued", "max_delay_ms"):
            assert fast.cloud_queue[name] == recorded.cloud_queue[name], name
        assert fast.cloud_queue["mean_delay_ms"] == pytest.approx(
            recorded.cloud_queue["mean_delay_ms"], rel=1e-9
        )
        # Running sums vs means over a retained list differ in the last ulp.
        for key, value in recorded.latency.items():
            assert fast.latency[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
        assert fast.queue_delay_ms == pytest.approx(recorded.queue_delay_ms, rel=1e-9, abs=1e-12)
        assert fast.cloud_queue_delay_ms == pytest.approx(
            recorded.cloud_queue_delay_ms, rel=1e-9, abs=1e-12
        )
        for fast_edge, recorded_edge in zip(fast.edges, recorded.edges, strict=True):
            for name in ("edge_id", "streams", "frames_processed", "queue_jobs", "utilization"):
                assert fast_edge[name] == recorded_edge[name], name
            for name in ("mean_queue_delay_ms", "max_queue_delay_ms"):
                assert fast_edge[name] == pytest.approx(
                    recorded_edge[name], rel=1e-9, abs=1e-12
                ), name
        # Nearest-rank over identical samples up to the quantile
        # accumulator's exact limit; within its stated 1% beyond it —
        # the only documented deviation between the two modes.
        exact = recorded.frames <= QuantileAccumulator().exact_limit
        assert exact == (cell != "scale-stress-smoke")  # each branch below is exercised
        for name in ("p50_latency_ms", "p95_latency_ms", "p99_latency_ms"):
            if exact:
                assert getattr(fast, name) == getattr(recorded, name), name
            else:
                assert getattr(fast, name) == pytest.approx(getattr(recorded, name), rel=0.01), name

    def test_same_workload(self, light_fast_report, light_recorded_report):
        assert light_fast_report.frames == light_recorded_report.frames
        assert light_fast_report.streams == light_recorded_report.streams
        assert light_fast_report.frames > 500

    def test_same_accuracy_and_bandwidth(self, light_fast_report, light_recorded_report):
        assert light_fast_report.f_score == light_recorded_report.f_score
        assert (
            light_fast_report.bandwidth_utilization
            == light_recorded_report.bandwidth_utilization
        )

    def test_same_latency_breakdown(self, light_fast_report, light_recorded_report):
        for key, value in light_recorded_report.latency.items():
            assert light_fast_report.latency[key] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), key

    def test_same_tail_percentiles(self, light_fast_report, light_recorded_report):
        # Below the accumulator's exact limit both paths use nearest-rank
        # over identical samples, so the tails agree to the last bit.
        assert light_fast_report.p50_latency_ms == light_recorded_report.p50_latency_ms
        assert light_fast_report.p95_latency_ms == light_recorded_report.p95_latency_ms
        assert light_fast_report.p99_latency_ms == light_recorded_report.p99_latency_ms

    def test_same_queueing_and_throughput(self, light_fast_report, light_recorded_report):
        assert light_fast_report.queue_delay_ms == pytest.approx(
            light_recorded_report.queue_delay_ms, rel=1e-9, abs=1e-12
        )
        assert light_fast_report.throughput_fps == pytest.approx(
            light_recorded_report.throughput_fps, rel=1e-9
        )
        assert light_fast_report.makespan_s == pytest.approx(
            light_recorded_report.makespan_s, rel=1e-9
        )

    def test_same_per_edge_frame_counts(self, light_fast_report, light_recorded_report):
        fast_edges = {edge["edge_id"]: edge["frames_processed"] for edge in light_fast_report.edges}
        recorded_edges = {
            edge["edge_id"]: edge["frames_processed"] for edge in light_recorded_report.edges
        }
        assert fast_edges == recorded_edges


@functools.lru_cache(maxsize=None)
def _cluster_result(scenario: str, record_frames: bool):
    spec = get_scenario(scenario).with_(record_frames=record_frames)
    return ClusterSystem(build_cluster_config(spec)).run(build_streams(spec))


def _run_records(result, records: str):
    """One kind of run record; warm failovers are kept as the replication
    block's ``promotion_events``."""
    if records == "promotions":
        return result.replication["promotion_events"]
    return getattr(result, records)


class TestFastPathKeepsTheRunRecords:
    """The typed run records are the run's only timeline, so a
    non-recording run keeps every one of them — record for record, with
    the fields the report leaves out (a move's ``reason``) included."""

    @pytest.mark.parametrize(
        "scenario, records",
        [
            ("failure-recovery", "migrations"),
            ("failure-recovery", "failures"),
            ("cluster-migration", "migrations"),
            ("replicated-failover", "promotions"),
            ("resharding", "reshards"),
            ("cluster-batched-2pc", "batch_flushes"),
        ],
    )
    def test_records_match_the_recorded_run(self, scenario, records):
        fast = _run_records(_cluster_result(scenario, False), records)
        recorded = _run_records(_cluster_result(scenario, True), records)
        assert fast == recorded
        assert len(fast) > 0

    def test_fast_path_keeps_no_per_frame_rows(self):
        fast = _cluster_result("failure-recovery", False)
        recorded = _cluster_result("failure-recovery", True)
        assert all(stream.traces == [] for stream in fast.per_stream.values())
        assert {name: stream.frames_streamed for name, stream in fast.per_stream.items()} == {
            name: len(stream.traces) for name, stream in recorded.per_stream.items()
        }
        validated = sum(
            trace.sent_to_cloud for stream in recorded.per_stream.values() for trace in stream.traces
        )
        assert fast.cloud_validations == recorded.cloud_validations == validated > 0


class TestFastPathDeterminism:
    def test_seeded_fast_runs_are_bit_identical(self):
        spec = get_scenario("scale-stress-smoke").with_(duration_s=10.0)
        first = run(spec)
        second = run(spec)
        assert first.to_dict() == second.to_dict()

    def test_recorded_golden_pin_unaffected_by_fast_path_machinery(self):
        """The recorded path's seeded runs stay bit-for-bit reproducible."""
        spec = get_scenario("cluster-uniform")
        assert spec.record_frames
        assert run(spec).to_dict() == run(spec).to_dict()


# -- spec validation ----------------------------------------------------------
class TestSpecValidation:
    def test_reference_engine_requires_recording(self):
        with pytest.raises(ValueError, match="reference_engine"):
            ScenarioSpec(
                deployment="cluster", record_frames=False, reference_engine=True
            )

    def test_fast_path_is_cluster_only(self):
        with pytest.raises(ValueError, match="record_frames"):
            ScenarioSpec(deployment="single", record_frames=False)

    def test_traffic_video_must_exist(self):
        with pytest.raises(ValueError, match="traffic_video"):
            ScenarioSpec(
                deployment="cluster",
                traffic="poisson",
                traffic_video="no-such-video",
            )

    def test_traffic_video_requires_traffic(self):
        with pytest.raises(ValueError, match="traffic_video"):
            ScenarioSpec(deployment="cluster", traffic_video="stress")

    def test_scale_stress_scenarios_are_registered(self):
        full = get_scenario("scale-stress")
        smoke = get_scenario("scale-stress-smoke")
        reference = get_scenario("scale-stress-reference")
        assert not full.record_frames and not smoke.record_frames
        assert reference.reference_engine and reference.record_frames
        assert full.num_edges >= 100
        # ~1e5 streams / 1e6 frames offered over the arrival horizon.
        assert full.offered_rate * full.duration_s >= 1e5
        assert full.offered_rate * full.duration_s * full.frames >= 1e6

    def test_model_axes_must_name_library_profiles(self):
        with pytest.raises(ValueError, match="edge_model"):
            ScenarioSpec(deployment="cluster", edge_model="no-such-model")
        with pytest.raises(ValueError, match="cloud_model"):
            ScenarioSpec(deployment="cluster", cloud_model="no-such-model")

    def test_stress_profiles_never_hallucinate(self):
        assert MODEL_LIBRARY["stress-edge"].false_positive_rate == 0.0
        assert MODEL_LIBRARY["stress-cloud"].false_positive_rate == 0.0
        stress = get_scenario("scale-stress")
        assert stress.edge_model == "stress-edge"
        assert stress.cloud_model == "stress-cloud"


# -- static-video fast lanes (shared frames, skipped RNG mints) ---------------
class TestStaticVideoSharing:
    def test_is_static_flags_only_content_free_presets(self):
        assert VIDEO_LIBRARY["stress"].is_static
        for key in ("v1", "v2", "v3", "v4", "v5"):
            assert not VIDEO_LIBRARY[key].is_static

    def test_static_videos_share_one_frame_tuple(self):
        first = list(make_video("stress", num_frames=7).frames())
        second = list(make_video("stress", num_frames=7).frames())
        other = list(make_video("stress", num_frames=8).frames())
        assert [a is b for a, b in zip(first, second)] == [True] * 7
        assert len(other) == 8 and other[0] is not first[0]
        assert all(frame.objects == () for frame in first)

    def test_static_video_never_draws_from_its_rng(self):
        rng = np.random.default_rng(123)
        witness = np.random.default_rng(123)
        for _ in make_video("stress", num_frames=50, rng=rng).frames():
            pass
        assert rng.normal() == witness.normal()

    def test_traffic_source_reuses_one_rng_for_static_streams(self):
        config = TrafficConfig(
            offered_rate=5.0, duration_s=2.0, video_keys=("stress",)
        )
        videos = [
            video
            for _, video in TrafficSource(config, RngRegistry(7)).streams()
        ]
        assert len(videos) >= 2
        assert all(video.rng is videos[0].rng for video in videos)


# -- interval tracking gate ---------------------------------------------------
class TestTrackIntervalsGate:
    def test_untracked_server_skips_interval_history_but_not_busy_time(self):
        tracked = Server(capacity=1)
        untracked = Server(capacity=1)
        untracked.track_intervals = False
        for server in (tracked, untracked):
            start, _ = server.acquire(0.0)
            server.finish(start, 2.0)
        assert untracked.busy_time == tracked.busy_time == 2.0
        assert tracked.load(2.0, window=4.0) > 0.0
        assert untracked.load(2.0, window=4.0) == 0.0
