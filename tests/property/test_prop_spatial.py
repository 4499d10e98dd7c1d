"""Property tests: spatial model laws."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.geometry import Box
from repro.spatial.model import SpaceType, build_simple_building

boxes = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    x=st.floats(-100, 100, allow_nan=False),
    y=st.floats(-100, 100, allow_nan=False),
    w=st.floats(0, 50, allow_nan=False),
    h=st.floats(0, 50, allow_nan=False),
)


class TestBoxLaws:
    @given(boxes, boxes)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(boxes, boxes)
    def test_touch_symmetric_and_disjoint_from_overlap(self, a, b):
        assert a.touches(b) == b.touches(a)
        assert not (a.touches(b) and a.overlaps(b))

    @given(boxes)
    def test_self_containment(self, box):
        assert box.contains_box(box)
        assert box.contains_point(box.center)

    @given(boxes, boxes)
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert a.contains_box(inter)
            assert b.contains_box(inter)

    @given(boxes, boxes)
    def test_union_bounds_contains_both(self, a, b):
        union = a.union_bounds(b)
        assert union.contains_box(a)
        assert union.contains_box(b)

    @given(boxes, st.floats(0, 10, allow_nan=False))
    def test_expand_monotone(self, box, margin):
        assert box.expand(margin).contains_box(box)


@pytest.fixture(scope="module")
def model():
    return build_simple_building("b", floors=3, rooms_per_floor=6)


def space_ids(model):
    return sorted(s.space_id for s in model)


class TestModelLaws:
    @settings(max_examples=50)
    @given(data=st.data())
    def test_contains_is_a_partial_order(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        c = data.draw(st.sampled_from(ids))
        # Reflexive.
        assert model.contains(a, a)
        # Antisymmetric.
        if model.contains(a, b) and model.contains(b, a):
            assert a == b
        # Transitive.
        if model.contains(a, b) and model.contains(b, c):
            assert model.contains(a, c)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_overlap_symmetric_and_implied_by_contains(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        assert model.overlap(a, b) == model.overlap(b, a)
        if model.contains(a, b):
            assert model.overlap(a, b)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_neighboring_irreflexive_symmetric(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        b = data.draw(st.sampled_from(ids))
        assert not model.neighboring(a, a)
        assert model.neighboring(a, b) == model.neighboring(b, a)

    @settings(max_examples=50)
    @given(data=st.data())
    def test_ancestor_at_level_is_ancestor_and_coarser(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        level = data.draw(st.sampled_from(list(SpaceType)))
        ancestor = model.ancestor_at_level(a, level)
        if ancestor is not None:
            assert model.contains(ancestor.space_id, a)
            assert ancestor.space_type is level

    @settings(max_examples=50)
    @given(data=st.data())
    def test_path_to_root_ends_at_root(self, model, data):
        ids = space_ids(model)
        a = data.draw(st.sampled_from(ids))
        path = model.path_to_root(a)
        assert path[0].space_id == a
        assert path[-1].is_root
        # Each hop is a parent link.
        for child, parent in zip(path, path[1:]):
            assert child.parent_id == parent.space_id

    @settings(max_examples=50)
    @given(data=st.data())
    def test_rooms_on_different_floors_never_neighbor(self, model, data):
        rooms = [s.space_id for s in model.spaces_of_type(SpaceType.ROOM)]
        a = data.draw(st.sampled_from(rooms))
        b = data.draw(st.sampled_from(rooms))
        floor_a = model.ancestor_at_level(a, SpaceType.FLOOR).space_id
        floor_b = model.ancestor_at_level(b, SpaceType.FLOOR).space_id
        if floor_a != floor_b:
            assert not model.neighboring(a, b)
            assert not model.overlap(a, b)
