"""Tests for bounding boxes and overlap computations."""

import pytest

from repro.detection.geometry import BoundingBox, overlap_ratio

from helpers import iou


class TestBoundingBox:
    def test_dimensions(self):
        box = BoundingBox(0, 0, 10, 20)
        assert box.width == 10
        assert box.height == 20
        assert box.area == 200

    def test_center(self):
        assert BoundingBox(0, 0, 10, 20).center == (5, 10)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 10, 10, 0)

    def test_zero_area_box_allowed(self):
        box = BoundingBox(5, 5, 5, 5)
        assert box.area == 0

    def test_intersection_of_overlapping_boxes(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 15, 15)
        assert a.intersection(b) == 25

    def test_intersection_of_disjoint_boxes_is_zero(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(20, 20, 30, 30)
        assert a.intersection(b) == 0

    def test_intersection_is_symmetric(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 20, 10)
        assert a.intersection(b) == b.intersection(a)

    def test_translated(self):
        moved = BoundingBox(0, 0, 10, 10).translated(5, -2)
        assert (moved.x_min, moved.y_min, moved.x_max, moved.y_max) == (5, -2, 15, 8)

    def test_scaled_preserves_center(self):
        box = BoundingBox(0, 0, 10, 10)
        scaled = box.scaled(2.0)
        assert scaled.center == box.center
        assert scaled.area == pytest.approx(box.area * 4)

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, 10).scaled(0)

    def test_clipped_to_frame(self):
        box = BoundingBox(-10, -10, 2000, 500)
        clipped = box.clipped(1280, 720)
        assert clipped.x_min == 0
        assert clipped.y_min == 0
        assert clipped.x_max == 1280
        assert clipped.y_max == 500


class TestIoU:
    def test_identical_boxes(self):
        box = BoundingBox(0, 0, 10, 10)
        assert iou(box, box) == 1.0

    def test_disjoint_boxes(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(0, 0, 10, 20)
        assert iou(a, b) == pytest.approx(0.5)

    def test_bounded_in_unit_interval(self):
        a = BoundingBox(0, 0, 7, 13)
        b = BoundingBox(3, 2, 22, 9)
        assert 0.0 <= iou(a, b) <= 1.0


class TestOverlapRatio:
    def test_contained_box_has_full_overlap(self):
        outer = BoundingBox(0, 0, 100, 100)
        inner = BoundingBox(10, 10, 20, 20)
        assert overlap_ratio(outer, inner) == 1.0

    def test_symmetric(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 30, 30)
        assert overlap_ratio(a, b) == overlap_ratio(b, a)

    def test_disjoint_is_zero(self):
        assert overlap_ratio(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_at_least_iou(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 15, 10)
        assert overlap_ratio(a, b) >= iou(a, b)
