"""Self-time arithmetic and wrapper lifetime of the outside-in tracer."""

from __future__ import annotations

import sys
import types

import pytest

from perf.trace import LAYERS, Tracer, span_name


class FakeClock:
    """A clock that only moves when the synthetic work says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def tree(monkeypatch):
    """A synthetic module ``fake_tree``: top -> mid -> 2 x leaf."""
    clock = FakeClock()
    module = types.ModuleType("fake_tree")

    def leaf():
        clock.now += 3.0

    def mid():
        clock.now += 2.0
        module.leaf()
        clock.now += 1.0
        module.leaf()

    def top():
        clock.now += 5.0
        module.mid()
        clock.now += 0.5

    module.leaf, module.mid, module.top = leaf, mid, top
    monkeypatch.setitem(sys.modules, "fake_tree", module)
    return clock, module


def test_self_time_of_a_nested_call_tree_is_exact(tree):
    clock, module = tree
    tracer = Tracer(clock=clock)
    for name in ("top", "mid", "leaf"):
        assert tracer.wrap("fake_tree", name, "tree." + name)

    @tracer.op
    def operation():
        clock.now += 0.25
        module.top()

    operation()
    operation()

    stats = tracer.stats
    assert stats["tree.leaf"].calls == 4
    assert stats["tree.leaf"].self_s == 12.0
    assert stats["tree.mid"].self_s == 6.0
    assert stats["tree.mid"].total_s == 18.0
    assert stats["tree.top"].self_s == 11.0
    assert stats["tree.top"].total_s == 29.0
    assert stats["op"].self_s == 0.5
    assert tracer.ops == 2
    assert tracer.op_seconds == 29.5
    assert tracer.coverage() == 29.0 / 29.5


def test_spans_of_one_op_share_its_index_and_nest_by_depth(tree):
    clock, module = tree
    tracer = Tracer(clock=clock)
    for name in ("top", "mid", "leaf"):
        tracer.wrap("fake_tree", name, name)
    op = tracer.op(module.top)
    op()
    op()
    first = [span for span in tracer.spans if span[0] == 0]
    assert [(index, depth, name) for index, depth, name, _, _ in first] == [
        (0, 3, "leaf"), (0, 3, "leaf"), (0, 2, "mid"), (0, 1, "top"), (0, 0, "op"),
    ]
    assert first[-1][3:] == (0.0, 14.5)
    assert [span[0] for span in tracer.spans[len(first):]] == [1] * len(first)


def test_an_exception_still_closes_the_span(tree):
    clock, module = tree

    def boom():
        clock.now += 4.0
        raise ValueError("boom")

    module.boom = boom
    tracer = Tracer(clock=clock)
    tracer.wrap("fake_tree", "boom", "boom")
    with pytest.raises(ValueError):
        tracer.op(module.boom)()
    assert tracer.stats["boom"].raised == 1
    assert tracer.stats["boom"].self_s == 4.0
    assert tracer.stats["op"].total_s == 4.0


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    def own(self):
        return "own"


def test_unwrap_restores_owned_and_inherited_attributes(monkeypatch):
    module = types.ModuleType("fake_classes")
    module.Child = Child
    monkeypatch.setitem(sys.modules, "fake_classes", module)
    tracer = Tracer()
    assert tracer.wrap("fake_classes", "Child.own", "own")
    assert tracer.wrap("fake_classes", "Child.inherited", "inherited")
    assert Child().own() == "own" and Child().inherited() == "base"
    assert tracer.stats["own"].calls == 1
    tracer.unwrap_all()
    assert Child.__dict__["own"].__name__ == "own"
    assert "inherited" not in Child.__dict__
    assert Base().inherited() == "base"


def test_a_missing_callable_is_reported_not_skipped():
    tracer = Tracer()
    assert not tracer.wrap("perf.trace", "Tracer.no_such_method", "x")
    assert not tracer.wrap("perf.no_such_module", "f", "y")
    assert tracer.missing == [
        "perf.trace:Tracer.no_such_method", "perf.no_such_module:f",
    ]


def test_every_layer_callable_exists_in_the_program():
    tracer = Tracer()
    tracer.install_layers()
    try:
        assert tracer.missing == []
    finally:
        tracer.unwrap_all()
    names = [span_name(layer, qualname) for layer, _, qualname, _ in LAYERS]
    assert len(set(names)) == len(names)
