"""Tests for the generalized multi-tier pipeline (paper §3.5)."""

import hashlib

import pytest

from repro.core.multi_tier import MultiTierPipeline, MultiTierResult, TierSpec
from repro.core.thresholds import ThresholdPolicy
from repro.detection.matching import match_labels
from repro.detection.metrics import evaluate_detections
from repro.detection.profiles import (
    CLOUD_YOLOV3_320,
    CLOUD_YOLOV3_416,
    EDGE_TINY_YOLOV3,
)
from repro.network.latency import CROSS_COUNTRY, SAME_REGION
from repro.network.topology import CLOUD_XLARGE, EDGE_REGULAR, EDGE_SMALL
from repro.video.library import make_video

#: The two cascades ``examples/multi_tier_cascade.py`` compares.
EXAMPLE_CASCADES = {
    "two-tier": [
        TierSpec(
            name="edge",
            model=EDGE_TINY_YOLOV3,
            machine=EDGE_REGULAR,
            policy=ThresholdPolicy(0.3, 0.7),
        ),
        TierSpec(name="cloud", model=CLOUD_YOLOV3_416, machine=CLOUD_XLARGE, uplink=CROSS_COUNTRY),
    ],
    "three-tier": [
        TierSpec(
            name="device",
            model=EDGE_TINY_YOLOV3,
            machine=EDGE_SMALL,
            policy=ThresholdPolicy(0.3, 0.8),
        ),
        TierSpec(
            name="edge",
            model=CLOUD_YOLOV3_320,
            machine=EDGE_REGULAR,
            uplink=SAME_REGION,
            policy=ThresholdPolicy(0.4, 0.7),
        ),
        TierSpec(name="cloud", model=CLOUD_YOLOV3_416, machine=CLOUD_XLARGE, uplink=CROSS_COUNTRY),
    ],
}

#: sha256 prefix of every frame's tiers, latencies and accuracy counts for
#: each example cascade on 20 frames of v2 (seed 7).
CASCADE_PINS = {
    "two-tier": "a9df59ca44e2da62",
    "three-tier": "67b381d8b3616dcd",
}


def _run_example(name: str, seed: int = 7):
    return MultiTierPipeline(EXAMPLE_CASCADES[name], seed=seed).run(
        make_video("v2", num_frames=20, seed=7)
    )


def _cascade_digest(name: str, seed: int = 7) -> str:
    result = _run_example(name, seed)
    digest = hashlib.sha256()
    for trace, report in zip(result.traces, result.accuracy_reports):
        row = (
            trace.frame_id,
            [
                (
                    tier.tier,
                    tier.forwarded,
                    tier.corrections,
                    repr(tier.detection_latency),
                    repr(tier.transfer_latency),
                )
                for tier in trace.tiers
            ],
            repr(trace.initial_latency),
            repr(trace.final_latency),
            (report.true_positives, report.false_positives, report.false_negatives),
        )
        digest.update(repr(row).encode("utf-8"))
    return digest.hexdigest()[:16]


def _three_tiers(forward_everything: bool = False) -> list[TierSpec]:
    policy = ThresholdPolicy(0.0, 0.999) if forward_everything else ThresholdPolicy(0.3, 0.7)
    return [
        TierSpec(name="device", model=EDGE_TINY_YOLOV3, machine=EDGE_SMALL, policy=policy),
        TierSpec(
            name="edge",
            model=CLOUD_YOLOV3_320,
            machine=EDGE_REGULAR,
            uplink=SAME_REGION,
            policy=policy,
        ),
        TierSpec(
            name="cloud",
            model=CLOUD_YOLOV3_416,
            machine=CLOUD_XLARGE,
            uplink=CROSS_COUNTRY,
        ),
    ]


@pytest.mark.parametrize("name", sorted(CASCADE_PINS))
def test_example_cascade_pin(name):
    """Each frame's tiers, forwarding, corrections, latencies and counts."""
    assert _cascade_digest(name) == CASCADE_PINS[name]


@pytest.mark.parametrize("name", sorted(EXAMPLE_CASCADES))
class TestExampleCascades:
    def test_each_frame_draws_the_last_tier_once(self, name, monkeypatch):
        pipeline = MultiTierPipeline(EXAMPLE_CASCADES[name], seed=7)
        last = pipeline._detectors[-1]
        draws = []
        detect = last.detect

        def counting_detect(frame):
            draws.append(frame.frame_id)
            return detect(frame)

        monkeypatch.setattr(last, "detect", counting_detect)
        result = pipeline.run(make_video("v2", num_frames=20, seed=7))
        assert draws == [trace.frame_id for trace in result.traces]

    def test_every_tier_but_the_last_visited_forwards(self, name):
        for trace in _run_example(name).traces:
            assert all(tier.forwarded for tier in trace.tiers[:-1])
            assert not trace.tiers[-1].forwarded

    def test_latencies_accumulate_tier_by_tier(self, name):
        for trace in _run_example(name).traces:
            assert trace.tiers[0].transfer_latency == 0.0
            assert trace.initial_latency == trace.tiers[0].detection_latency
            elapsed = 0.0
            for tier in trace.tiers:
                elapsed += tier.transfer_latency + tier.detection_latency
            assert trace.final_latency == elapsed

    def test_transfer_is_the_uplink_time_of_the_frame(self, name):
        specs = EXAMPLE_CASCADES[name]
        sizes = {
            frame.frame_id: frame.size_bytes
            for frame in make_video("v2", num_frames=20, seed=7).frames()
        }
        for trace in _run_example(name).traces:
            for spec, tier in zip(specs[1:], trace.tiers[1:]):
                assert tier.tier == spec.name
                assert tier.transfer_latency == spec.uplink.transfer_time(sizes[trace.frame_id])

    def test_corrections_count_the_mismatches_with_the_tier_below(self, name):
        for trace in _run_example(name).traces:
            assert trace.tiers[0].corrections == 0
            for below, tier in zip(trace.tiers, trace.tiers[1:]):
                expected = match_labels(below.labels, tier.labels, min_overlap=0.10)
                assert tier.corrections == expected.corrections_needed


class TestMultiTierPipeline:
    def test_requires_two_tiers(self):
        with pytest.raises(ValueError):
            MultiTierPipeline([_three_tiers()[0]])

    def test_processes_all_frames(self):
        pipeline = MultiTierPipeline(_three_tiers(), seed=3)
        result = pipeline.run(make_video("v1", num_frames=15, seed=3))
        assert result.num_frames == 15

    def test_frames_visit_between_one_and_all_tiers(self):
        pipeline = MultiTierPipeline(_three_tiers(), seed=3)
        result = pipeline.run(make_video("v1", num_frames=20, seed=3))
        for trace in result.traces:
            assert 1 <= trace.tiers_visited <= 3

    def test_forwarding_everything_visits_every_tier(self):
        pipeline = MultiTierPipeline(_three_tiers(forward_everything=True), seed=3)
        result = pipeline.run(make_video("v1", num_frames=15, seed=3))
        frames_with_detections = [
            t for t in result.traces if len(t.tiers[0].labels) > 0
        ]
        assert frames_with_detections
        assert all(t.tiers_visited == 3 for t in frames_with_detections)

    def test_initial_latency_smaller_than_final(self):
        pipeline = MultiTierPipeline(_three_tiers(forward_everything=True), seed=3)
        result = pipeline.run(make_video("v1", num_frames=15, seed=3))
        assert result.average_initial_latency <= result.average_final_latency
        assert result.average_initial_latency > 0

    def test_forwarding_ratio_decreases_up_the_cascade(self):
        pipeline = MultiTierPipeline(_three_tiers(), seed=3)
        result = pipeline.run(make_video("v2", num_frames=30, seed=3))
        assert result.forwarding_ratio(0) >= result.forwarding_ratio(1)

    def test_more_tiers_means_higher_final_latency_when_forwarding(self):
        two_tier = MultiTierPipeline(_three_tiers(forward_everything=True)[:2], seed=3)
        three_tier = MultiTierPipeline(_three_tiers(forward_everything=True), seed=3)
        two_result = two_tier.run(make_video("v1", num_frames=15, seed=3))
        three_result = three_tier.run(make_video("v1", num_frames=15, seed=3))
        assert three_result.average_final_latency > two_result.average_final_latency

    def test_accuracy_is_reported(self):
        pipeline = MultiTierPipeline(_three_tiers(forward_everything=True), seed=3)
        result = pipeline.run(make_video("v3", num_frames=20, seed=3))
        assert 0.0 <= result.f_score <= 1.0

    def test_frame_that_reached_the_last_tier_is_scored_against_its_labels(self):
        pipeline = MultiTierPipeline(_three_tiers(), seed=3)
        result = pipeline.run(make_video("v2", num_frames=30, seed=3))
        full = [
            (trace, report)
            for trace, report in zip(result.traces, result.accuracy_reports)
            if trace.tiers_visited == 3
        ]
        assert full
        for trace, report in full:
            assert report == evaluate_detections(trace.observed_labels, trace.tiers[-1].labels)

    def test_a_frame_that_stops_at_the_first_tier_observes_its_labels(self):
        result = MultiTierPipeline(_three_tiers(), seed=3).run(
            make_video("v2", num_frames=30, seed=3)
        )
        stopped = [trace for trace in result.traces if trace.tiers_visited == 1]
        assert stopped
        for trace in stopped:
            assert trace.observed_labels is trace.tiers[0].labels
            assert trace.final_latency == trace.initial_latency

    def test_the_seed_alone_decides_the_run(self):
        assert _cascade_digest("three-tier", seed=11) == _cascade_digest("three-tier", seed=11)
        assert _cascade_digest("three-tier", seed=11) != _cascade_digest("three-tier", seed=7)

    def test_an_empty_result_reports_zero(self):
        result = MultiTierResult()
        assert result.num_frames == 0
        assert result.average_initial_latency == 0.0
        assert result.average_final_latency == 0.0
        assert result.average_tiers_visited == 0.0
        assert result.forwarding_ratio(0) == 0.0

    def test_average_tiers_visited_between_bounds(self):
        pipeline = MultiTierPipeline(_three_tiers(), seed=3)
        result = pipeline.run(make_video("v1", num_frames=20, seed=3))
        assert 1.0 <= result.average_tiers_visited <= 3.0
