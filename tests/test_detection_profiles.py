"""Tests for model profiles."""

import pytest

from repro.detection.profiles import (
    CLOUD_PROFILES,
    CLOUD_YOLOV3_320,
    CLOUD_YOLOV3_416,
    CLOUD_YOLOV3_608,
    EDGE_TINY_YOLOV3,
    ModelProfile,
)


class TestModelProfilePresets:
    def test_edge_model_is_fastest(self):
        assert EDGE_TINY_YOLOV3.inference_latency < CLOUD_YOLOV3_320.inference_latency

    def test_cloud_models_ordered_by_latency(self):
        assert (
            CLOUD_YOLOV3_320.inference_latency
            < CLOUD_YOLOV3_416.inference_latency
            < CLOUD_YOLOV3_608.inference_latency
        )

    def test_cloud_models_ordered_by_recall(self):
        assert (
            CLOUD_YOLOV3_320.recall
            <= CLOUD_YOLOV3_416.recall
            <= CLOUD_YOLOV3_608.recall
        )

    def test_edge_model_is_least_accurate(self):
        assert EDGE_TINY_YOLOV3.recall < CLOUD_YOLOV3_320.recall
        assert EDGE_TINY_YOLOV3.mislabel_rate > CLOUD_YOLOV3_416.mislabel_rate

    def test_cloud_profiles_lookup(self):
        assert set(CLOUD_PROFILES) == {"yolov3-320", "yolov3-416", "yolov3-608"}
        assert CLOUD_PROFILES["yolov3-608"] is CLOUD_YOLOV3_608


class TestModelProfileValidation:
    def _base_kwargs(self) -> dict:
        return dict(
            name="m",
            recall=0.8,
            mislabel_rate=0.1,
            false_positive_rate=0.1,
            box_noise=0.05,
            confidence_correct=0.8,
            confidence_error=0.4,
            confidence_spread=0.1,
            inference_latency=0.1,
            latency_jitter=0.01,
        )

    def test_recall_out_of_range_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["recall"] = 1.2
        with pytest.raises(ValueError):
            ModelProfile(**kwargs)

    def test_negative_latency_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["inference_latency"] = -0.1
        with pytest.raises(ValueError):
            ModelProfile(**kwargs)

    def test_negative_false_positive_rate_rejected(self):
        kwargs = self._base_kwargs()
        kwargs["false_positive_rate"] = -1
        with pytest.raises(ValueError):
            ModelProfile(**kwargs)

    def test_with_name(self):
        assert ModelProfile(**self._base_kwargs()).with_name("renamed").name == "renamed"
