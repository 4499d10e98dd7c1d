"""Unit tests for the tracer: span nesting, exception-safety, clocks."""

import pytest

from repro.errors import NetworkError
from repro.net.bus import Endpoint, MessageBus, RpcError
from repro.obs.instrument import timed
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import ManualClock, NullTracer, Tracer, get_tracer, set_tracer


class TestSpanNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child_1") as child1:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("child_2") as child2:
                pass
        assert parent.children == [child1, child2]
        assert child1.children == [grandchild]
        assert grandchild.parent is child1
        assert parent.parent is None
        assert list(tracer.roots) == [parent]

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [span.name for span in tracer.spans()]
        assert names == ["a", "b", "c", "d"]

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_current_span_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("outer"):
            assert tracer.current().name == "outer"
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
            assert tracer.current().name == "outer"
        assert tracer.current() is None

    def test_attributes_recorded(self):
        tracer = Tracer()
        with tracer.span("bus.call", target="tippers", method="locate_user") as span:
            pass
        assert span.attributes == {"target": "tippers", "method": "locate_user"}

    def test_roots_bounded(self):
        tracer = Tracer(max_roots=3)
        for index in range(10):
            with tracer.span("s%d" % index):
                pass
        assert [r.name for r in tracer.roots] == ["s7", "s8", "s9"]


class _Failing(Endpoint):
    def handle(self, method, payload):
        raise NetworkError("endpoint exploded")


class TestExceptionSafety:
    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(NetworkError):
            with tracer.span("doomed"):
                raise NetworkError("boom")
        (root,) = tracer.roots
        assert root.finished
        assert root.status == "error"
        assert "NetworkError" in root.error
        assert tracer.errored == 1
        assert tracer.current() is None

    def test_nested_spans_all_close_when_inner_raises(self):
        tracer = Tracer()
        with pytest.raises(NetworkError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise NetworkError("boom")
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert outer.finished and inner.finished
        assert outer.status == "error" and inner.status == "error"

    def test_bus_call_span_closes_on_rpc_error(self):
        tracer = Tracer()
        bus = MessageBus(metrics=MetricsRegistry(), tracer=tracer)
        bus.register("svc", _Failing())
        with pytest.raises(RpcError):
            bus.call("svc", "anything")
        (span,) = tracer.find("bus.call")
        assert span.finished
        assert span.status == "error"
        assert "RpcError" in span.error

    def test_bus_call_span_closes_on_network_loss(self):
        from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
        from repro.net.resilience import RetryPolicy

        tracer = Tracer()
        bus = MessageBus(metrics=MetricsRegistry(), tracer=tracer)
        FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))  # every attempt
        ).install_bus(bus)
        bus.register("svc", _Failing())
        with pytest.raises(NetworkError):
            bus.call(
                "svc", "anything",
                retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.0, jitter=0.0),
            )
        (span,) = tracer.find("bus.call")
        assert span.finished
        assert span.status == "error"


class TestSimulatedClock:
    def test_durations_use_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(0.5)
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert outer.duration == pytest.approx(2.5)
        assert inner.duration == pytest.approx(0.5)
        assert inner.start == pytest.approx(2.0)

    def test_manual_clock_cannot_rewind(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1)

    def test_slowest_roots_ordering(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        for name, duration in (("fast", 0.1), ("slow", 5.0), ("medium", 1.0)):
            with tracer.span(name):
                clock.advance(duration)
        assert [s.name for s in tracer.slowest_roots(2)] == ["slow", "medium"]


class TestRendering:
    def test_tree_lines_indent_children(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root", kind="demo"):
            with tracer.span("leaf"):
                clock.advance(1.0)
        (root,) = tracer.roots
        lines = root.tree_lines()
        assert lines[0].startswith("root")
        assert "kind=demo" in lines[0]
        assert lines[1].startswith("  leaf")


class TestTimedDecorator:
    def test_records_durations_and_reraises(self):
        registry = MetricsRegistry()

        @timed("op_seconds", registry=registry)
        def flaky(fail):
            if fail:
                raise NetworkError("nope")
            return 42

        assert flaky(False) == 42
        with pytest.raises(NetworkError):
            flaky(True)
        histogram = registry.histogram("op_seconds")
        assert histogram.count == 2

    def test_default_registry_resolved_per_call(self):
        from repro.obs.metrics import get_registry, set_registry

        @timed("late_seconds")
        def work():
            return 1

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            work()
        finally:
            set_registry(previous)
        assert fresh.histogram("late_seconds").count == 1


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything"):
            pass
        assert list(tracer.roots) == []


class TestDefaultTracer:
    def test_set_tracer_swaps_and_returns_previous(self):
        fresh = Tracer()
        previous = set_tracer(fresh)
        try:
            assert get_tracer() is fresh
        finally:
            set_tracer(previous)
        assert get_tracer() is previous
