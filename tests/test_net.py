"""Unit tests for the message bus and codec."""

import pytest

from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.net.bus import BusFault, Endpoint, MessageBus, RpcError
from repro.net.codec import decode_message, encode_message
from repro.net.resilience import RetryPolicy
from repro.obs.metrics import MetricsRegistry


class Echo(Endpoint):
    def handle(self, method, payload):
        if method == "echo":
            return {"echoed": payload}
        if method == "boom":
            raise NetworkError("kaboom")
        return super().handle(method, payload)


def lossy(bus, rate=0.0, seed=0):
    """Lose ``rate`` of ``bus``'s attempts (every attempt when 0)."""
    spec = FaultSpec(kind=FaultKind.DROP, rate=rate)
    FaultInjector(single_spec_plan(spec, seed=seed)).install_bus(bus)
    return bus


def immediate_retries(count):
    """A policy that re-sends ``count`` times without backoff."""
    return RetryPolicy(max_retries=count, base_delay_s=0.0, jitter=0.0)


def with_latency(bus, latency_s):
    """Charge ``latency_s`` of simulated latency to every attempt."""
    bus.install_fault_plane(lambda target, method: BusFault(latency_s=latency_s))
    return bus


class TestCodec:
    def test_round_trip(self):
        message = {"a": 1, "b": [1, 2], "c": {"d": None}}
        assert decode_message(encode_message(message)) == message

    def test_non_serializable_rejected(self):
        with pytest.raises(NetworkError):
            encode_message({"x": object()})

    def test_nan_rejected(self):
        with pytest.raises(NetworkError):
            encode_message({"x": float("nan")})

    def test_malformed_text_rejected(self):
        with pytest.raises(NetworkError):
            decode_message("{oops")

    def test_non_object_rejected(self):
        with pytest.raises(NetworkError):
            decode_message("[1,2]")


class TestBus:
    def test_call_round_trip(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        assert bus.call("echo", "echo", {"x": 1}) == {"echoed": {"x": 1}}

    def test_unknown_target(self):
        with pytest.raises(NetworkError):
            MessageBus().call("ghost", "m")

    def test_remote_error_becomes_rpc_error(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        with pytest.raises(RpcError) as excinfo:
            bus.call("echo", "boom")
        assert "kaboom" in str(excinfo.value)

    def test_unhandled_method(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        with pytest.raises(RpcError):
            bus.call("echo", "unknown-method")

    def test_payload_must_be_wire_safe(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        with pytest.raises(NetworkError):
            bus.call("echo", "echo", {"bad": object()})

    def test_duplicate_registration_rejected(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        with pytest.raises(NetworkError):
            bus.register("echo", Echo())

    def test_register_handler_function(self):
        bus = MessageBus()
        bus.register_handler("fn", lambda method, payload: {"m": method})
        assert bus.call("fn", "hello") == {"m": "hello"}

    def test_unregister(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        bus.unregister("echo")
        assert "echo" not in bus


class TestLossAndLatency:
    def test_plane_drop_raises(self):
        bus = lossy(MessageBus())
        bus.register("echo", Echo())
        with pytest.raises(NetworkError):
            bus.call("echo", "echo", {})
        assert bus.stats.dropped >= 1

    def test_retries_recover_from_loss(self):
        bus = lossy(MessageBus(), rate=0.5, seed=3)
        bus.register("echo", Echo())
        # With enough retries one attempt gets through.
        result = bus.call(
            "echo", "echo", {"x": 1}, retry_policy=immediate_retries(50)
        )
        assert result == {"echoed": {"x": 1}}

    def test_rpc_errors_not_retried(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        with pytest.raises(RpcError):
            bus.call("echo", "boom", retry_policy=immediate_retries(5))
        assert bus.stats.calls == 1, "application errors must not be retried"

    def test_latency_accumulated(self):
        bus = with_latency(MessageBus(), 0.05)
        bus.register("echo", Echo())
        bus.call("echo", "echo", {})
        bus.call("echo", "echo", {})
        assert bus.stats.simulated_latency_s == pytest.approx(0.1)

    def test_invalid_parameters(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.DROP, rate=1.5)
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.LATENCY, latency_s=-1)
        with pytest.raises(ValueError):
            BusFault(latency_s=-1)

    def test_byte_counters_advance(self):
        bus = MessageBus()
        bus.register("echo", Echo())
        bus.call("echo", "echo", {"x": "hello"})
        assert bus.stats.bytes_sent > 0
        assert bus.stats.bytes_received > 0


class TestRetryAccounting:
    """Pins the attempts-vs-logical-calls stat semantics.

    ``stats.calls`` counts transport *attempts* (each retry is one more
    attempt), while ``stats.logical_calls`` counts ``call()``
    invocations and ``stats.retries`` the re-sends -- so lossy-run rates
    can pick the right denominator instead of skewing attempt counts
    against logical outcomes.
    """

    def test_attempts_split_into_logical_calls_and_retries(self):
        bus = lossy(MessageBus(metrics=MetricsRegistry()), rate=0.4, seed=7)
        bus.register("echo", Echo())
        succeeded = failed = 0
        for index in range(50):
            try:
                bus.call(
                    "echo", "echo", {"i": index},
                    retry_policy=immediate_retries(3),
                )
                succeeded += 1
            except NetworkError:
                failed += 1
        assert succeeded + failed == 50
        assert bus.stats.logical_calls == 50
        assert bus.stats.retries > 0, "a 40% loss rate must force retries"
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        # With no endpoint errors, every attempt either dropped or
        # succeeded, and each success completes one logical call.
        assert bus.stats.errors == 0
        assert bus.stats.calls - bus.stats.dropped == succeeded
        # A failed logical call burns exactly 1 + retries attempts.
        assert bus.stats.dropped == bus.stats.retries + failed

    def test_lossless_bus_never_retries(self):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register("echo", Echo())
        for index in range(10):
            bus.call(
                "echo", "echo", {"i": index}, retry_policy=immediate_retries(5)
            )
        assert bus.stats.logical_calls == 10
        assert bus.stats.retries == 0
        assert bus.stats.calls == 10

    def test_rpc_error_consumes_single_attempt(self):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register("echo", Echo())
        with pytest.raises(RpcError):
            bus.call("echo", "boom", retry_policy=immediate_retries(5))
        assert bus.stats.logical_calls == 1
        assert bus.stats.retries == 0
        assert bus.stats.calls == 1

    def test_registry_mirrors_stats(self):
        registry = MetricsRegistry()
        bus = lossy(MessageBus(metrics=registry), rate=0.3, seed=11)
        bus.register("echo", Echo())
        for index in range(30):
            try:
                bus.call(
                    "echo", "echo", {"i": index},
                    retry_policy=immediate_retries(2),
                )
            except NetworkError:
                pass
        assert registry.total("bus_attempts_total") == bus.stats.calls
        assert registry.total("bus_calls_total") == bus.stats.logical_calls
        assert registry.total("bus_retries_total") == bus.stats.retries
        assert registry.total("bus_dropped_total") == bus.stats.dropped
        assert registry.total("bus_bytes_sent_total") == bus.stats.bytes_sent
        assert registry.total("bus_bytes_received_total") == bus.stats.bytes_received
        histogram = registry.histogram(
            "bus_call_seconds", {"target": "echo", "method": "echo"}
        )
        assert histogram.count == bus.stats.logical_calls
        assert histogram.percentile(95) is not None

    def test_negative_fault_latency_is_rejected(self):
        registry = MetricsRegistry()
        bus = MessageBus(metrics=registry)
        bus.register("echo", Echo())
        plane = lambda target, method: BusFault(latency_s=0.25)  # noqa: E731
        bus.install_fault_plane(plane)
        bus.call("echo", "echo")
        bus.remove_fault_plane(plane)
        bus.install_fault_plane(lambda target, method: BusFault(latency_s=-0.5))
        with pytest.raises(ValueError):
            bus.call("echo", "echo")
        assert bus.stats.simulated_latency_s == 0.25
        assert bus.stats.simulated_latency_s == registry.total(
            "bus_simulated_latency_seconds_total"
        )
        with pytest.raises(ValueError):
            BusFault(latency_s=0.5).merge(BusFault(latency_s=-1.0))

    def test_buses_sharing_a_registry_sum(self):
        registry = MetricsRegistry()
        buses = [
            with_latency(MessageBus(metrics=registry), latency)
            for latency in (0.25, 0.5)
        ]
        for count, bus in enumerate(buses, 1):
            bus.register("echo", Echo())
            for _ in range(count):
                bus.call("echo", "echo", {"n": count})
        for name, field in (
            ("bus_attempts_total", "calls"),
            ("bus_bytes_sent_total", "bytes_sent"),
            ("bus_bytes_received_total", "bytes_received"),
            ("bus_simulated_latency_seconds_total", "simulated_latency_s"),
        ):
            assert registry.total(name) == sum(
                getattr(bus.stats, field) for bus in buses
            )
        assert registry.total("bus_attempts_total") == 3
        assert registry.total("bus_simulated_latency_seconds_total") == 1.25
