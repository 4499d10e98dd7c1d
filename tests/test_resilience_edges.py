"""Edge cases around breaker recovery and mid-retry deadline death.

Complements test_resilience_breaker.py / test_resilience_retry.py with
the awkward corners: a breaker that heals through half-open and must
then earn a *full* failure streak before re-opening, and a deadline
that dies between two scheduled backoffs while the bus accounting
identity (``calls == logical_calls + retries``) stays intact.
"""

import pytest

from repro.errors import CircuitOpenError, DeadlineError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, CircuitBreaker, Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry


class TestHalfOpenReclose:
    def test_reclose_restores_the_full_failure_budget(self, thresholds):
        """A healed breaker is truly closed: the streak starts from zero."""
        thresholds(3, 1)
        breaker = CircuitBreaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        breaker.allow()  # cooldown reached -> half-open
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        # Post-heal, one or two failures must NOT trip it again.
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2

    def test_half_open_failure_reopens_below_threshold(self, thresholds):
        """One failed trial re-opens even with a high failure threshold."""
        thresholds(5, 1)
        breaker = CircuitBreaker()
        for _ in range(5):
            breaker.record_failure()
        breaker.allow()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # single trial failure, streak reset by open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.rejections_while_open == 0  # cooldown restarts

    def test_open_close_cycle_is_repeatable(self, thresholds):
        """trip -> cool down -> heal, twice; counters stay consistent."""
        thresholds(1, 2)
        breaker = CircuitBreaker()
        for cycle in range(1, 3):
            breaker.record_failure()
            assert breaker.state == CircuitBreaker.OPEN
            assert not breaker.allow()
            assert not breaker.allow()
            assert breaker.state == CircuitBreaker.HALF_OPEN
            assert breaker.allow()
            breaker.record_success()
            assert breaker.state == CircuitBreaker.CLOSED
            assert breaker.times_opened == cycle


class TestBusHalfOpenReclose:
    def test_bus_recloses_and_serves_after_fault_window(self, thresholds):
        """End to end: trip on drops, cool down on rejections, re-close."""
        thresholds(2, 2)
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics, breakers=BreakerBoard())
        bus.register_handler("echo", lambda method, payload: {"ok": True})
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP, at_steps=(0, 1)))
        )
        injector.install_bus(bus)
        for _ in range(2):  # two dropped calls trip the breaker
            with pytest.raises(NetworkError):
                bus.call("echo", "ping")
        assert bus.breakers.states() == {"echo": CircuitBreaker.OPEN}
        for _ in range(2):  # rejected calls are the cooldown clock
            with pytest.raises(CircuitOpenError):
                bus.call("echo", "ping")
        assert bus.stats.rejected == 2
        # The half-open trial rides a healthy transport and closes it.
        assert bus.call("echo", "ping") == {"ok": True}
        assert bus.breakers.states() == {"echo": CircuitBreaker.CLOSED}
        # Rejections never entered the logical-call accounting.
        assert bus.stats.logical_calls == 3
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries


class TestDeadlineMidRetry:
    def make_lossy_bus(self):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register_handler("echo", lambda method, payload: {"ok": True})
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))  # every attempt
        )
        injector.install_bus(bus)
        return bus

    def test_exhaustion_between_backoffs_keeps_accounting_identity(self):
        bus = self.make_lossy_bus()
        policy = RetryPolicy(max_retries=4, base_delay_s=0.1, multiplier=2.0,
                             jitter=0.0, max_delay_s=10.0)
        deadline = Deadline(0.75)  # 0.1 + 0.2 + 0.4 fit; the 0.8 does not
        with pytest.raises(DeadlineError):
            bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
        assert bus.stats.retries == 3
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        # The refused charge leaves the budget untouched.
        assert deadline.spent_s == pytest.approx(0.7)
        assert not deadline.expired

    def test_exhausted_deadline_chains_the_transport_error(self):
        bus = self.make_lossy_bus()
        policy = RetryPolicy(max_retries=3, base_delay_s=1.0, jitter=0.0)
        with pytest.raises(DeadlineError) as excinfo:
            bus.call(
                "echo", "ping", retry_policy=policy, deadline=Deadline(0.5)
            )
        # The DeadlineError carries the drop that forced the retry.
        assert isinstance(excinfo.value.__cause__, NetworkError)
        assert bus.stats.retries == 0  # died before the first re-send

    def test_deadline_spans_logical_calls(self):
        """One Deadline can budget a whole operation, not just one call."""
        bus = self.make_lossy_bus()
        policy = RetryPolicy(max_retries=2, base_delay_s=0.1, multiplier=2.0,
                             jitter=0.0)
        deadline = Deadline(0.45)
        # First logical call burns its full schedule (0.1 + 0.2).
        with pytest.raises(NetworkError):
            bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
        assert deadline.spent_s == pytest.approx(0.3)
        # The second call affords one more backoff, then dies mid-retry.
        with pytest.raises(DeadlineError):
            bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
        assert deadline.spent_s == pytest.approx(0.4)
        assert bus.stats.retries == 3
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
