"""RetryPolicy and Deadline semantics, plus their bus integration."""

import pytest

from repro.errors import DeadlineError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.net.bus import MessageBus
from repro.net.resilience import Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().base_delay_for(0)

    def test_base_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_retries=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=1.0,
            jitter=0.0,
        )
        assert tuple(policy.base_delay_for(n) for n in range(1, 7)) == (
            0.1, 0.2, 0.4, 0.8, 1.0, 1.0
        )

    def test_zero_jitter_schedule_equals_base(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.schedule() == tuple(
            policy.base_delay_for(n) for n in range(1, policy.max_retries + 1)
        )

    def test_schedule_is_computed_once(self, monkeypatch):
        policy = RetryPolicy(seed=3)
        expected = tuple(
            policy.delay_for(n) for n in range(1, policy.max_retries + 1)
        )

        def refuse(self, attempt):
            raise AssertionError("schedule() recomputed a delay")

        monkeypatch.setattr(RetryPolicy, "delay_for", refuse)
        assert policy.schedule() == expected
        assert policy.schedule() is policy.schedule()
        # The cached schedule takes no part in equality or hashing.
        monkeypatch.undo()
        assert policy == RetryPolicy(seed=3)
        assert hash(policy) == hash(RetryPolicy(seed=3))
        assert "_schedule" not in repr(policy)

    def test_jitter_is_deterministic_per_seed(self):
        first = RetryPolicy(seed=7).schedule()
        second = RetryPolicy(seed=7).schedule()
        assert first == second
        assert RetryPolicy(seed=8).schedule() != first

    def test_jitter_stays_within_band_and_cap(self):
        policy = RetryPolicy(
            max_retries=8, base_delay_s=0.5, multiplier=2.0, max_delay_s=2.0,
            jitter=0.1, seed=3,
        )
        for attempt in range(1, 9):
            base = policy.base_delay_for(attempt)
            delay = policy.delay_for(attempt)
            assert delay <= policy.max_delay_s
            assert base * (1 - policy.jitter) <= delay or delay == policy.max_delay_s
            assert delay <= base * (1 + policy.jitter)

    def test_deadline_keeps_the_longest_affordable_schedule_prefix(self):
        policy = RetryPolicy(max_retries=5, jitter=0.0, base_delay_s=0.1,
                             multiplier=2.0, max_delay_s=10.0)
        # Full schedule: 0.1, 0.2, 0.4, 0.8, 1.6
        for budget, retries, error in (
            (0.75, 3, DeadlineError),
            (0.05, 0, DeadlineError),
            (100.0, 5, NetworkError),
        ):
            bus = MessageBus(metrics=MetricsRegistry())
            bus.register_handler("echo", lambda method, payload: {"ok": True})
            FaultInjector(
                single_spec_plan(FaultSpec(kind=FaultKind.DROP))
            ).install_bus(bus)
            deadline = Deadline(budget)
            with pytest.raises(error):
                bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
            assert bus.stats.retries == retries
            assert deadline.spent_s == pytest.approx(
                sum(policy.schedule()[:retries])
            )
        assert deadline.spent_s == pytest.approx(3.1)


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(1.0).try_charge(-0.1)

    def test_spend_down(self):
        deadline = Deadline(1.0)
        assert deadline.try_charge(0.6)
        assert deadline.remaining_s == pytest.approx(0.4)
        assert not deadline.try_charge(0.5)
        assert deadline.remaining_s == pytest.approx(0.4)  # refused, not charged
        assert deadline.try_charge(0.4)
        assert deadline.expired

    def test_charge_raises_when_overdrawn(self):
        deadline = Deadline(0.5)
        deadline.charge(0.3)
        with pytest.raises(DeadlineError):
            deadline.charge(0.3)


class TestBusRetryIntegration:
    def make_bus(self):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register_handler("echo", lambda method, payload: {"ok": True})
        return bus

    def test_retry_policy_recovers_from_injected_drops(self):
        bus = self.make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP, at_steps=(0, 1)))
        )
        injector.install_bus(bus)
        policy = RetryPolicy(max_retries=3, jitter=0.0)
        assert bus.call("echo", "ping", retry_policy=policy) == {"ok": True}
        assert bus.stats.logical_calls == 1
        assert bus.stats.retries == 2
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        # The first two backoff delays were charged as simulated latency.
        assert bus.stats.simulated_latency_s == pytest.approx(
            sum(policy.schedule()[:2])
        )

    def test_deadline_stops_retrying_midway(self):
        bus = self.make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))  # every attempt
        )
        injector.install_bus(bus)
        policy = RetryPolicy(max_retries=5, base_delay_s=0.1, multiplier=2.0,
                             jitter=0.0, max_delay_s=10.0)
        deadline = Deadline(0.35)  # affords 0.1 + 0.2, not the 0.4 after
        with pytest.raises(DeadlineError):
            bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
        assert bus.stats.retries == 2
        assert bus.stats.calls == 3  # first attempt + two retries
        assert deadline.remaining_s == pytest.approx(0.05)

    def test_budget_exhaustion_is_metered(self):
        metrics = MetricsRegistry()
        bus = MessageBus(metrics=metrics)
        bus.register_handler("echo", lambda method, payload: {"ok": True})
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))
        )
        injector.install_bus(bus)
        with pytest.raises(DeadlineError):
            bus.call(
                "echo", "ping",
                retry_policy=RetryPolicy(jitter=0.0),
                deadline=Deadline(0.01),
            )
        assert metrics.total("bus_deadline_exhausted_total") == 1

    def test_retry_budget_exhausted_raises_last_error(self):
        bus = self.make_bus()
        injector = FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))
        )
        injector.install_bus(bus)
        with pytest.raises(NetworkError):
            bus.call("echo", "ping", retry_policy=RetryPolicy(max_retries=2, jitter=0.0))
        assert bus.stats.calls == 3
        assert bus.stats.retries == 2
