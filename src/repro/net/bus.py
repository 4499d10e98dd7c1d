"""Request/response message bus; loss and latency come from fault planes."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import (
    AdmissionShedError,
    CircuitOpenError,
    DeadlineError,
    NetworkError,
)
from repro.net.admission import AdmissionController
from repro.net.codec import decode_message, encode_message
from repro.net.resilience import BreakerBoard, Deadline, RetryPolicy
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_registry
from repro.obs.tracing import Tracer, get_tracer


class RpcError(NetworkError):
    """An application-level error raised by the remote endpoint."""

    def __init__(self, target: str, method: str, message: str) -> None:
        super().__init__("%s.%s failed: %s" % (target, method, message))
        self.target = target
        self.method = method
        self.remote_message = message


class Endpoint:
    """Something addressable on the bus.

    Subclasses implement :meth:`handle`; unhandled methods raise
    :class:`NetworkError`, which the bus reports to the caller as an
    :class:`RpcError`.
    """

    def handle(self, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        raise NetworkError("method %r not handled" % method)


@dataclass
class BusFault:
    """What an installed fault plane wants done to one transport attempt.

    Returned by a plane callable (``plane(target, method) -> Optional[BusFault]``).
    ``drop`` and ``offline`` carry a reason string and lose the message;
    ``corrupt`` mangles the wire bytes so decoding fails; ``latency_s``
    adds simulated network latency.  Effects compose across planes.
    """

    drop: Optional[str] = None
    offline: Optional[str] = None
    corrupt: bool = False
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("fault latency_s must be non-negative")

    def merge(self, other: "BusFault") -> "BusFault":
        return BusFault(
            drop=self.drop if self.drop is not None else other.drop,
            offline=self.offline if self.offline is not None else other.offline,
            corrupt=self.corrupt or other.corrupt,
            latency_s=self.latency_s + other.latency_s,
        )


#: A transport-level interception point: consulted once per attempt,
#: inside the bus's own accounting, so injected faults reconcile with
#: the attempt/retry counters.  Planes are the bus's only source of
#: message loss and simulated latency.
FaultPlane = Callable[[str, str], Optional[BusFault]]


class _CallableEndpoint(Endpoint):
    def __init__(self, handler: Callable[[str, Dict[str, Any]], Dict[str, Any]]) -> None:
        self._handler = handler

    def handle(self, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._handler(method, payload)


@dataclass
class BusStats:
    """Counters for experiments and debugging.

    ``calls`` counts transport *attempts* (each retry is an attempt);
    ``logical_calls`` counts :meth:`MessageBus.call` invocations, and
    ``retries`` the re-sent attempts after a lost one, so
    ``calls == logical_calls + retries`` always holds.  Rate
    computations should divide by the counter matching their
    denominator (attempts for loss rates, logical calls for request
    failure rates).
    """

    calls: int = 0
    dropped: int = 0
    errors: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    simulated_latency_s: float = 0.0
    logical_calls: int = 0
    retries: int = 0
    #: Messages mangled in transit by a fault plane (subset of
    #: ``dropped``: fault planes are the bus's only source of loss).
    corrupted: int = 0
    #: Calls refused by an open circuit breaker before becoming a
    #: logical call (so ``calls == logical_calls + retries`` still holds).
    rejected: int = 0
    #: Calls shed by admission control before becoming a logical call
    #: (its own ledger, same identity-preserving position as ``rejected``).
    shed: int = 0


#: The :class:`BusStats` fields the metrics registry reports.
_TRACKED = {
    "calls": ("bus_attempts_total", {}),
    "dropped": ("bus_dropped_total", {}),
    "errors": ("bus_errors_total", {}),
    "bytes_sent": ("bus_bytes_sent_total", {}),
    "bytes_received": ("bus_bytes_received_total", {}),
    "simulated_latency_s": ("bus_simulated_latency_seconds_total", {}),
}


class MessageBus:
    """Connects named endpoints through a JSON boundary.

    Installed fault planes (:data:`FaultPlane`) lose messages, raising
    :class:`NetworkError` at the caller, and add latency, which is
    accumulated in :attr:`stats` rather than slept, so simulations can
    account for network time without wall-clock cost.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        breakers: Optional[BreakerBoard] = None,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self._endpoints: Dict[str, Endpoint] = {}
        self.stats = BusStats()
        self.breakers = breakers
        self.admission = admission
        self._fault_planes: List[FaultPlane] = []
        self.metrics = metrics if metrics is not None else get_registry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.metrics.track(self.stats, _TRACKED)
        #: ``(target, method)`` -> its ``bus_calls_total`` counter and
        #: ``bus_call_seconds`` histogram, bound on the pair's first call.
        self._call_handles: Dict[Tuple[str, str], Tuple[Counter, Histogram]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, endpoint: Endpoint) -> None:
        if not name:
            raise NetworkError("endpoint name must be non-empty")
        if name in self._endpoints:
            raise NetworkError("endpoint %r already registered" % name)
        self._endpoints[name] = endpoint

    def register_handler(
        self, name: str, handler: Callable[[str, Dict[str, Any]], Dict[str, Any]]
    ) -> None:
        self.register(name, _CallableEndpoint(handler))

    def unregister(self, name: str, evict_breaker: bool = False) -> None:
        """Remove an endpoint; optionally drop its breaker entry too.

        ``evict_breaker=False`` (the default) is for *temporary*
        darkness -- a crashed shard keeps its breaker state because the
        open breaker is live health information for callers.  Pass
        ``True`` when the endpoint is decommissioned for good, so the
        board does not grow unboundedly as endpoints come and go.
        """
        self._endpoints.pop(name, None)
        if evict_breaker and self.breakers is not None:
            self.breakers.evict(name)

    def endpoints(self) -> Dict[str, Endpoint]:
        return dict(self._endpoints)

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    # ------------------------------------------------------------------
    # Fault planes
    # ------------------------------------------------------------------
    def install_fault_plane(self, plane: FaultPlane) -> None:
        """Attach a transport-level fault plane (see :data:`FaultPlane`)."""
        self._fault_planes.append(plane)

    def remove_fault_plane(self, plane: FaultPlane) -> None:
        if plane in self._fault_planes:
            self._fault_planes.remove(plane)

    def _consult_planes(self, target: str, method: str) -> Optional[BusFault]:
        fault: Optional[BusFault] = None
        for plane in self._fault_planes:
            verdict = plane(target, method)
            if verdict is None:
                continue
            fault = verdict if fault is None else fault.merge(verdict)
        return fault

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(
        self,
        target: str,
        method: str,
        payload: Optional[Dict[str, Any]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        deadline: Optional[Deadline] = None,
        principal: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Invoke ``method`` on ``target`` with a JSON round-trip.

        ``retry_policy`` re-sends on transport loss (not on remote
        errors), charging the policy's deterministic backoff schedule as
        simulated latency; without one the call makes a single attempt.
        ``deadline`` bounds the call: backoff delays that would overdraw
        the budget abort retrying with
        :class:`~repro.errors.DeadlineError`.  When the bus carries a
        :class:`~repro.net.resilience.BreakerBoard`, calls to a target
        whose breaker is open are refused up front with
        :class:`~repro.errors.CircuitOpenError` (counted in
        ``stats.rejected``, never as a logical call).  When it carries
        an :class:`~repro.net.admission.AdmissionController`, every call
        is admission-checked first: shed calls raise
        :class:`~repro.errors.AdmissionShedError` (counted in
        ``stats.shed``, never as a logical call), and browned-out calls
        proceed with a ``brownout_level`` hint injected into the payload
        so privacy-aware endpoints can serve coarser data.  ``principal``
        names the caller for per-principal admission budgets.

        Raises :class:`NetworkError` on loss/unknown targets and
        :class:`RpcError` when the endpoint itself fails.
        """
        if self.admission is not None:
            ticket = self.admission.admit(target, method, principal)
            if not ticket.admitted:
                self.stats.shed += 1
                self.metrics.counter(
                    "bus_admission_shed_total",
                    {"target": target, "class": ticket.priority.value},
                ).inc()
                raise AdmissionShedError(
                    "call %s.%s shed by admission control (%s, load %.2f): %s"
                    % (target, method, ticket.priority.value, ticket.load,
                       ticket.reason)
                )
            if ticket.browned_out:
                payload = dict(payload or {})
                payload["brownout_level"] = ticket.brownout_level
        if self.breakers is not None:
            try:
                self.breakers.check(target)
            except CircuitOpenError:
                self.stats.rejected += 1
                self.metrics.counter(
                    "bus_breaker_rejected_total", {"target": target}
                ).inc()
                raise
        self.stats.logical_calls += 1
        handles = self._call_handles.get((target, method))
        if handles is None:
            call_labels = {"target": target, "method": method}
            handles = self._call_handles[(target, method)] = (
                self.metrics.counter("bus_calls_total", call_labels),
                self.metrics.histogram("bus_call_seconds", call_labels),
            )
        calls, latency = handles
        calls.inc()
        start = time.perf_counter()
        schedule = retry_policy.schedule() if retry_policy is not None else ()
        try:
            with self.tracer.span("bus.call", target=target, method=method):
                last_error: Optional[NetworkError] = None
                for attempt in range(len(schedule) + 1):
                    if attempt:
                        backoff = schedule[attempt - 1]
                        if deadline is not None and not deadline.try_charge(backoff):
                            self.metrics.counter(
                                "bus_deadline_exhausted_total", {"target": target}
                            ).inc()
                            raise DeadlineError(
                                "deadline exhausted calling %s.%s after %d attempt(s)"
                                % (target, method, attempt)
                            ) from last_error
                        self.stats.retries += 1
                        self.metrics.counter(
                            "bus_retries_total", {"target": target}
                        ).inc()
                        if backoff:
                            self.stats.simulated_latency_s += backoff
                            self.metrics.counter(
                                "bus_backoff_seconds_total", {"target": target}
                            ).inc(backoff)
                    try:
                        result = self._call_once(target, method, payload or {})
                    except RpcError:
                        # The endpoint answered (with an application
                        # error): the transport is healthy.
                        if self.breakers is not None:
                            self.breakers.record_success(target)
                        raise
                    except NetworkError as exc:
                        last_error = exc
                        if self.breakers is not None:
                            self.breakers.record_failure(target)
                        continue
                    if self.breakers is not None:
                        self.breakers.record_success(target)
                    return result
                assert last_error is not None
                raise last_error
        finally:
            latency.observe(time.perf_counter() - start)

    def _drop_attempt(self, target: str, metric: str, reason: str) -> None:
        """Account one lost attempt and raise the transport error."""
        self.stats.dropped += 1
        self.metrics.counter("bus_dropped_by_target_total", {"target": target}).inc()
        self.metrics.counter(metric, {"target": target}).inc()
        raise NetworkError(reason)

    def _call_once(
        self, target: str, method: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        self.stats.calls += 1
        fault = self._consult_planes(target, method)
        if fault is not None and fault.latency_s:
            self.stats.simulated_latency_s += fault.latency_s
            self.metrics.counter(
                "bus_fault_latency_seconds_total", {"target": target}
            ).inc(fault.latency_s)
        wire_request = encode_message(
            {"target": target, "method": method, "payload": payload}
        )
        self.stats.bytes_sent += len(wire_request)
        if fault is not None and fault.offline is not None:
            self._drop_attempt(
                target,
                "bus_endpoint_offline_total",
                "endpoint %r offline: %s" % (target, fault.offline),
            )
        if fault is not None and fault.drop is not None:
            self._drop_attempt(
                target,
                "bus_fault_dropped_total",
                "message to %r dropped: %s" % (target, fault.drop),
            )
        if fault is not None and fault.corrupt:
            # Truncation garbles the JSON framing; the decode below
            # fails exactly the way a torn datagram would.
            wire_request = wire_request[: max(1, len(wire_request) // 2)]
            self.stats.corrupted += 1
            self.metrics.counter("bus_corrupted_total", {"target": target}).inc()
        try:
            request = decode_message(wire_request)
        except NetworkError:
            self._drop_attempt(
                target,
                "bus_fault_dropped_total",
                "message to %r corrupted in transit" % target,
            )
        endpoint = self._endpoints.get(target)
        if endpoint is None:
            self.stats.errors += 1
            raise NetworkError("no endpoint %r" % target)
        try:
            response = endpoint.handle(request["method"], request["payload"])
        except NetworkError as exc:
            self.stats.errors += 1
            self.metrics.counter(
                "bus_rpc_errors_total", {"target": target, "method": method}
            ).inc()
            raise RpcError(target, method, str(exc)) from None
        wire_response = encode_message({"payload": response if response is not None else {}})
        self.stats.bytes_received += len(wire_response)
        return decode_message(wire_response)["payload"]
