"""CircuitBreaker / BreakerBoard state machine and bus integration."""

import pytest

from repro.errors import CircuitOpenError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.net import resilience
from repro.net.bus import MessageBus, RpcError
from repro.net.resilience import BreakerBoard, CircuitBreaker
from repro.obs.metrics import MetricsRegistry


class TestCircuitBreaker:
    def test_validation(self):
        assert resilience.FAILURE_THRESHOLD >= 1
        assert resilience.COOLDOWN_REJECTIONS >= 1

    def test_opens_after_threshold_consecutive_failures(self, thresholds):
        thresholds(failure_threshold=3)
        breaker = CircuitBreaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 1

    def test_success_resets_the_failure_streak(self, thresholds):
        thresholds(failure_threshold=3)
        breaker = CircuitBreaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cooldown_is_counted_in_rejections_not_time(self, thresholds):
        thresholds(failure_threshold=1, cooldown_rejections=3)
        breaker = CircuitBreaker()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert not breaker.allow()  # third rejection reaches the cooldown
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # half-open admits the trial call

    def test_half_open_trial_outcomes(self, thresholds):
        thresholds(failure_threshold=1, cooldown_rejections=1)

        def tripped():
            breaker = CircuitBreaker()
            breaker.record_failure()
            breaker.allow()
            assert breaker.state == CircuitBreaker.HALF_OPEN
            return breaker

        healed = tripped()
        healed.record_success()
        assert healed.state == CircuitBreaker.CLOSED

        still_down = tripped()
        still_down.record_failure()
        assert still_down.state == CircuitBreaker.OPEN
        assert still_down.times_opened == 2


class TestBreakerBoard:
    def test_breakers_are_lazy_and_per_target(self, thresholds):
        thresholds(failure_threshold=1)
        board = BreakerBoard()
        board.record_failure("irr-1")
        assert board.states() == {"irr-1": CircuitBreaker.OPEN}
        board.check("tippers")  # untouched target stays closed
        with pytest.raises(CircuitOpenError):
            board.check("irr-1")
        assert board.states() == {
            "irr-1": CircuitBreaker.OPEN, "tippers": CircuitBreaker.CLOSED
        }


class TestBusBreakerIntegration:
    def make_bus(self):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics, breakers=BreakerBoard())
        bus.register_handler("echo", lambda method, payload: {"ok": True})
        return bus, metrics

    def test_open_breaker_rejects_before_logical_call(self, thresholds):
        thresholds(failure_threshold=2, cooldown_rejections=4)
        bus, metrics = self.make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.CRASH, target="echo", stop=2))
        )
        injector.install_bus(bus)
        for _ in range(2):
            with pytest.raises(NetworkError):
                bus.call("echo", "ping")
        assert bus.breakers.states()["echo"] == CircuitBreaker.OPEN

        with pytest.raises(CircuitOpenError):
            bus.call("echo", "ping")
        assert bus.stats.rejected == 1
        assert bus.stats.logical_calls == 2  # the rejected call never counted
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        assert metrics.total("bus_breaker_rejected_total", {"target": "echo"}) == 1

    def test_breaker_recovers_through_half_open(self, thresholds):
        thresholds(failure_threshold=1, cooldown_rejections=2)
        bus, _ = self.make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.CRASH, target="echo", stop=1))
        )
        injector.install_bus(bus)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping")  # trips the breaker
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                bus.call("echo", "ping")  # cooldown rejections
        # Half-open now; the endpoint restarted at step 1, so the trial
        # succeeds and closes the breaker.
        assert bus.call("echo", "ping") == {"ok": True}
        assert bus.breakers.states()["echo"] == CircuitBreaker.CLOSED

    def test_rpc_error_counts_as_breaker_success(self, thresholds):
        def failing_handler(method, payload):
            raise NetworkError("application says no")

        thresholds(failure_threshold=1)
        bus, _ = self.make_bus()
        bus.register_handler("grumpy", failing_handler)
        for _ in range(3):
            with pytest.raises(RpcError):
                bus.call("grumpy", "ping")
        # The endpoint answered each time: the transport is healthy and
        # the breaker must stay closed.
        assert bus.breakers.states()["grumpy"] == CircuitBreaker.CLOSED
