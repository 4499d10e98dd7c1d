"""Instrumentation helpers: ``@timed`` and module-level ``span()``.

These are thin conveniences over the default registry/tracer so call
sites stay one line.  Both resolve the default lazily at call time, so
swapping the registry (as ``python -m repro obs`` does before a run)
redirects already-decorated functions too.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Mapping, Optional, Sequence, TypeVar

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)
from repro.obs.tracing import get_tracer

F = TypeVar("F", bound=Callable)


def timed(
    name: str,
    labels: Optional[Mapping[str, str]] = None,
    registry: Optional[MetricsRegistry] = None,
    boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
) -> Callable[[F], F]:
    """Record each call's wall-clock duration in histogram ``name``.

    The duration is recorded whether the call returns or raises, so
    failing calls stay visible in the latency distribution.
    """

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> object:
            target = registry if registry is not None else get_registry()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                target.histogram(name, labels, boundaries).observe(
                    time.perf_counter() - start
                )

        return wrapper  # type: ignore[return-value]

    return decorate


def span(name: str, **attributes: object):
    """Open a span on the default tracer (context manager)."""
    return get_tracer().span(name, **attributes)
