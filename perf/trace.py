"""Outside-in layer tracing for the benchmark.

The tracer wraps public callables of the system -- methods on its
classes and functions at the module-level names their callers look up
-- with span recorders.  Nothing under ``src/`` knows it is being
traced, and an untraced run installs nothing at all.

A span's *self time* is its duration minus the durations of the child
spans it covers.  Spans nest through one stack, so the arithmetic is
exact for a single-threaded caller: every measured second lands in
exactly one span's self time.  The benchmark wraps each timed entry
call in a root ``op`` span; the summed self time of every other span,
divided by the summed ``op`` time, is the trace *coverage*.

Aggregates (self time, calls, exceptions and extra counts per span
name) are kept for every op.  Full span lists are kept in memory for
the first :data:`KEEP_OPS` ops only, so memory stays flat however long
the run, and written out with the run's results.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Extra counting for one wrapped callable: called with the tracer's
#: ``counts`` counter, the call's positional arguments and its result.
CountHook = Callable[[Counter, Tuple[Any, ...], Any], None]

ROOT = "op"
#: Ops whose full span lists are kept.
KEEP_OPS = 32


def _codec_bytes(counts: Counter, args: Tuple[Any, ...], result: Any) -> None:
    counts["net.codec.bytes"] += len(result)


def _admission_verdict(counts: Counter, args: Tuple[Any, ...], ticket: Any) -> None:
    if not ticket.admitted:
        counts["net.admission.shed"] += 1
    elif ticket.browned_out:
        counts["net.admission.brownout"] += 1


def _rules_matched(counts: Counter, args: Tuple[Any, ...], match: Any) -> None:
    counts["core.reasoner.matcher.rules"] += len(match.policies) + len(match.preferences)


def _wal_bytes(counts: Counter, args: Tuple[Any, ...], lsn: Any) -> None:
    counts["storage.wal.bytes"] += len(args[1])


#: ``(layer, module, qualname, hook)`` for every traced callable.  The
#: codec and ``resolve`` are wrapped at the names their callers (the
#: bus and the engine module) look up.  The audit log and datastore are
#: wrapped on the WAL-backed classes every workload builds.
LAYERS: Tuple[Tuple[str, str, str, Optional[CountHook]], ...] = (
    ("net.bus", "repro.net.bus", "MessageBus.call", None),
    ("net.codec", "repro.net.bus", "encode_message", _codec_bytes),
    ("net.codec", "repro.net.bus", "decode_message", None),
    ("net.admission", "repro.net.admission", "AdmissionController.admit", _admission_verdict),
    ("net.resilience", "repro.net.resilience", "BreakerBoard.check", None),
    ("federation.router", "repro.federation.router", "FederationRouter.call_home", None),
    ("federation.router", "repro.federation.router", "FederationRouter.call_building", None),
    ("iota.assistant", "repro.iota.assistant", "IoTAssistant.discover", None),
    ("iota.assistant", "repro.iota.assistant", "IoTAssistant.configure_building_settings", None),
    ("irr.registry", "repro.irr.registry", "IoTResourceRegistry.handle", None),
    ("core.language.schema", "repro.core.language.schema", "Schema.validate", None),
    ("tippers.bms", "repro.tippers.bms", "TIPPERS.handle", None),
    ("tippers.request_manager", "repro.tippers.request_manager", "RequestManager.locate_user", None),
    ("tippers.request_manager", "repro.tippers.request_manager", "RequestManager.room_occupancy", None),
    ("tippers.inference", "repro.tippers.inference", "InferenceEngine.locate", None),
    ("tippers.inference", "repro.tippers.inference", "InferenceEngine.is_occupied", None),
    ("tippers.preference_manager", "repro.tippers.preference_manager", "PreferenceManager.apply_selection", None),
    ("tippers.sensor_manager", "repro.tippers.sensor_manager", "SensorManager.tick", None),
    ("tippers.datastore", "repro.storage.durable", "DurableDatastore.insert", None),
    ("core.enforcement.engine", "repro.core.enforcement.engine", "EnforcementEngine.decide", None),
    ("core.enforcement.engine", "repro.core.enforcement.engine", "EnforcementEngine.enforce_observation", None),
    ("core.reasoner.matcher", "repro.core.reasoner.matcher", "PolicyMatcher.match", _rules_matched),
    ("core.reasoner.resolution", "repro.core.enforcement.engine", "resolve", None),
    ("core.enforcement.audit", "repro.storage.durable", "DurableAuditLog.append", None),
    ("storage.durable", "repro.storage.durable", "StorageEngine.log", None),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog.append", _wal_bytes),
)


def span_name(layer: str, qualname: str) -> str:
    """``layer.fn``: the span (and metric prefix) of one traced callable."""
    return "%s.%s" % (layer, qualname.rsplit(".", 1)[-1])


class SpanStats:
    """Aggregates of every span recorded under one name."""

    __slots__ = ("total_s", "self_s", "calls", "raised")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.raised = 0


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        #: ``module:qualname`` of every callable that could not be found.
        self.missing: List[str] = []
        #: ``(op_index, depth, name, start, end)`` for the first ops;
        #: spans of one op share its index.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _recorder(
        self, name: str, fn: Callable[..., Any], hook: Optional[CountHook]
    ) -> Callable[..., Any]:
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock
        counts = self.counts
        spans = self.spans
        root = self.stats.setdefault(ROOT, SpanStats())

        def finish(frame: List[float], start: float, end: float, index: int) -> None:
            stack.pop()
            duration = end - start
            stats.total_s += duration
            stats.self_s += duration - frame[0]
            stats.calls += 1
            if stack:
                stack[-1][0] += duration
            if index < KEEP_OPS:
                spans.append((index, len(stack), name, start, end))

        def recorder(*args: Any, **kwargs: Any) -> Any:
            # frame[0] accumulates the durations of this span's children.
            frame = [0.0]
            index = root.calls
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                finish(frame, start, clock(), index)
                stats.raised += 1
                raise
            finish(frame, start, clock(), index)
            if hook is not None:
                hook(counts, args, result)
            return result

        return recorder

    def op(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as the root span of one benchmark operation."""
        return self._recorder(ROOT, fn, None)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        module: str,
        qualname: str,
        name: str,
        hook: Optional[CountHook] = None,
    ) -> bool:
        """Wrap ``module.qualname`` (``Class.method`` or ``function``).

        Returns whether the callable was found; one that was not is
        listed in :attr:`missing` instead of being skipped silently.
        """
        try:
            owner: Any = importlib.import_module(module)
        except ImportError:
            self.missing.append("%s:%s" % (module, qualname))
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append("%s:%s" % (module, qualname))
            return False
        # Restore what the owner itself held; an inherited method is
        # shadowed on the subclass and the shadow deleted afterwards.
        owned = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), owned))
        setattr(owner, attr, self._recorder(name, original, hook))
        return True

    def install_layers(self) -> None:
        """Wrap every callable in :data:`LAYERS`."""
        for layer, module, qualname, hook in LAYERS:
            self.wrap(module, qualname, span_name(layer, qualname), hook)

    def unwrap_all(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def ops(self) -> int:
        root = self.stats.get(ROOT)
        return root.calls if root is not None else 0

    @property
    def op_seconds(self) -> float:
        root = self.stats.get(ROOT)
        return root.total_s if root is not None else 0.0

    def coverage(self) -> float:
        """Summed self time of every layer over the summed op time."""
        if not self.op_seconds:
            return 0.0
        covered = sum(s.self_s for n, s in self.stats.items() if n != ROOT)
        return covered / self.op_seconds

    def layer_metrics(self, speed: float = 1.0) -> Dict[str, Tuple[float, str]]:
        """Per-op layer metrics: ``name -> (value, unit)``.

        Every traced callable gets ``<layer>.<fn>.self_us`` (self time
        per op), ``.self_share`` (its share of op time) and ``.calls``
        (calls per op); layers with extra counts add them per op or per
        call, as their names say.  Times are multiplied by ``speed``,
        the machine's speed relative to the reference while tracing.
        """
        ops = max(self.ops, 1)
        op_s = self.op_seconds or 1.0
        empty = SpanStats()
        metrics: Dict[str, Tuple[float, str]] = {}
        for layer, _module, qualname, _hook in LAYERS:
            name = span_name(layer, qualname)
            stats = self.stats.get(name, empty)
            metrics[name + ".self_us"] = (stats.self_s / ops * 1e6 * speed, "us")
            metrics[name + ".self_share"] = (stats.self_s / op_s, "fraction")
            metrics[name + ".calls"] = (stats.calls / ops, "1/op")
        admits = self.stats.get("net.admission.admit", empty).calls
        matches = self.stats.get("core.reasoner.matcher.match", empty).calls
        counts = self.counts
        metrics.update({
            "net.codec.bytes": (counts["net.codec.bytes"] / ops, "B/op"),
            "net.admission.shed_share": (
                counts["net.admission.shed"] / admits if admits else 0.0, "fraction"),
            "net.admission.brownout_share": (
                counts["net.admission.brownout"] / admits if admits else 0.0, "fraction"),
            "net.resilience.rejected": (
                self.stats.get("net.resilience.check", empty).raised / ops, "1/op"),
            "core.reasoner.matcher.rules_per_decision": (
                counts["core.reasoner.matcher.rules"] / matches if matches else 0.0, "count"),
            "storage.wal.bytes": (counts["storage.wal.bytes"] / ops, "B/op"),
            "trace.op_us": (self.op_seconds / ops * 1e6 * speed, "us"),
            "trace.coverage": (self.coverage(), "fraction"),
        })
        return metrics
