"""Unit tests for repro.spatial.geometry."""

import pytest

from repro.spatial.geometry import Box, Point


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-3.0, 7.25)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_distance_to_self_is_zero(self):
        p = Point(2.0, 3.0)
        assert p.distance_to(p) == 0.0


class TestBoxConstruction:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box(5, 0, 0, 5)

    def test_zero_area_box_allowed(self):
        box = Box(1, 1, 1, 1)
        assert box.area == 0.0

    def test_dimensions(self):
        box = Box(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12
        assert box.center == Point(2.0, 1.5)


class TestContainment:
    def test_contains_point_interior_and_boundary(self):
        box = Box(0, 0, 10, 10)
        assert box.contains_point(Point(5, 5))
        assert box.contains_point(Point(0, 0))
        assert box.contains_point(Point(10, 10))
        assert not box.contains_point(Point(10.01, 5))

    def test_contains_box(self):
        outer = Box(0, 0, 10, 10)
        assert outer.contains_box(Box(2, 2, 8, 8))
        assert outer.contains_box(outer)
        assert not outer.contains_box(Box(5, 5, 11, 11))


class TestOverlapAndTouch:
    def test_overlapping_boxes(self):
        a, b = Box(0, 0, 5, 5), Box(4, 4, 9, 9)
        assert a.overlaps(b) and b.overlaps(a)

    def test_edge_sharing_is_touch_not_overlap(self):
        a, b = Box(0, 0, 5, 5), Box(5, 0, 10, 5)
        assert not a.overlaps(b)
        assert a.touches(b) and b.touches(a)

    def test_corner_sharing_is_touch(self):
        a, b = Box(0, 0, 5, 5), Box(5, 5, 10, 10)
        assert a.touches(b)

    def test_disjoint_boxes_neither_touch_nor_overlap(self):
        a, b = Box(0, 0, 1, 1), Box(3, 3, 4, 4)
        assert not a.overlaps(b)
        assert not a.touches(b)

    def test_intersection_of_overlapping(self):
        a, b = Box(0, 0, 5, 5), Box(3, 3, 9, 9)
        inter = a.intersection(b)
        assert inter == Box(3, 3, 5, 5)

    def test_intersection_of_disjoint_is_none(self):
        assert Box(0, 0, 1, 1).intersection(Box(2, 2, 3, 3)) is None

    def test_union_bounds(self):
        a, b = Box(0, 0, 1, 1), Box(4, 5, 6, 7)
        assert a.union_bounds(b) == Box(0, 0, 6, 7)


class TestExpand:
    def test_positive_margin(self):
        assert Box(0, 0, 2, 2).expand(1) == Box(-1, -1, 3, 3)

    def test_negative_margin_within_limits(self):
        assert Box(0, 0, 10, 10).expand(-2) == Box(2, 2, 8, 8)

    def test_negative_margin_inverting_rejected(self):
        with pytest.raises(ValueError):
            Box(0, 0, 2, 2).expand(-2)
