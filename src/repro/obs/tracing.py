"""Span-tree tracing for the Figure-1 interaction path.

A :class:`Tracer` records nested spans -- one per bus call, discovery
sweep, or enforcement round -- with parent/child links, so the
multi-hop IRR -> IoTA -> TIPPERS loop can explain *where* a request
spent its time.  The clock is injectable: simulations that run on a
virtual clock pass it in and get spans measured in simulated seconds.

Spans are exception-safe: a span always closes (its ``end`` is set and
it is reported to the tracer) even when the instrumented call raises,
recording the error on the span before re-raising.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Deque, Dict, Iterator, List, Optional


class Span:
    """One timed operation, possibly with children."""

    __slots__ = ("name", "attributes", "start", "end", "parent", "children", "status", "error")

    def __init__(
        self,
        name: str,
        start: float,
        parent: Optional["Span"] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes or {})
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.children: List["Span"] = []
        self.status = "ok"
        self.error: Optional[str] = None
        if parent is not None:
            parent.children.append(self)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def tree_lines(self, indent: int = 0) -> List[str]:
        duration = self.duration
        mark = "" if self.status == "ok" else "  !%s" % (self.error or "error")
        attrs = (
            " (%s)" % ", ".join("%s=%s" % kv for kv in sorted(self.attributes.items()))
            if self.attributes
            else ""
        )
        lines = [
            "%s%-s%s  %s%s"
            % (
                "  " * indent,
                self.name,
                attrs,
                "...running" if duration is None else "%.6fs" % duration,
                mark,
            )
        ]
        for child in self.children:
            lines.extend(child.tree_lines(indent + 1))
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%r, status=%r, duration=%r)" % (self.name, self.status, self.duration)


class ManualClock:
    """A hand-advanced clock for deterministic span timing in tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def advance(self, delta_s: float) -> None:
        if delta_s < 0:
            raise ValueError("clock cannot go backwards")
        self.now += delta_s

    def __call__(self) -> float:
        return self.now


class Tracer:
    """Produces span trees; keeps only the newest ``max_roots`` roots."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_roots: int = 256,
    ) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be positive")
        self._clock = clock if clock is not None else time.perf_counter
        self._stack: List[Span] = []
        self.roots: Deque[Span] = deque(maxlen=max_roots)
        self.started = 0
        self.finished = 0
        self.errored = 0

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child of the current span (or a new root)."""
        parent = self._stack[-1] if self._stack else None
        current = Span(name, self._clock(), parent=parent, attributes=attributes)
        self._stack.append(current)
        self.started += 1
        try:
            yield current
        except BaseException as exc:
            current.status = "error"
            current.error = "%s: %s" % (type(exc).__name__, exc)
            self.errored += 1
            raise
        finally:
            current.end = self._clock()
            self.finished += 1
            self._stack.pop()
            if parent is None:
                self.roots.append(current)

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def spans(self) -> List[Span]:
        """Every recorded span, depth-first from each retained root."""
        result: List[Span] = []
        for root in self.roots:
            result.extend(root.walk())
        return result

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans() if span.name == name]

    def slowest_roots(self, limit: int = 5) -> List[Span]:
        finished = [root for root in self.roots if root.duration is not None]
        finished.sort(key=lambda s: s.duration or 0.0, reverse=True)
        return finished[:limit]

    def reset(self) -> None:
        self._stack.clear()
        self.roots.clear()
        self.started = 0
        self.finished = 0
        self.errored = 0


class _NullSpanContext:
    """The one context manager every :class:`NullTracer` span returns.

    Entering it yields the shared null span; leaving it records nothing
    and lets any exception propagate.  Reused across calls, so a span
    on an untraced hot path costs one method call and builds nothing.
    """

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


class NullTracer(Tracer):
    """A tracer that records nothing (for overhead-sensitive setups)."""

    def span(self, name: str, **attributes: object) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN_CONTEXT


_NULL_SPAN = Span("null", 0.0)
_NULL_SPAN_CONTEXT = _NullSpanContext()

# ----------------------------------------------------------------------
# Process-wide default tracer
# ----------------------------------------------------------------------
_default_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer components fall back to."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous
