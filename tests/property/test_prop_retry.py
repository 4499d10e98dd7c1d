"""Property tests for the retry/deadline primitives.

The resilience layer's whole value is determinism under uncertainty:
the backoff schedule must be a pure function of the policy's fields,
bounded by the configured cap, and never overdraw a deadline budget.
"""

from hypothesis import given, settings, strategies as st

from repro.errors import DeadlineError, NetworkError
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from repro.net.bus import MessageBus
from repro.net.resilience import Deadline, RetryPolicy
from repro.obs.metrics import MetricsRegistry

policies = st.builds(
    RetryPolicy,
    max_retries=st.integers(0, 8),
    base_delay_s=st.floats(0.001, 5.0, allow_nan=False),
    multiplier=st.floats(1.0, 4.0, allow_nan=False),
    max_delay_s=st.floats(0.001, 10.0, allow_nan=False),
    jitter=st.floats(0.0, 1.0, allow_nan=False),
    seed=st.integers(0, 2**16),
)


class TestScheduleProperties:
    @given(policy=policies)
    def test_schedule_is_deterministic(self, policy):
        clone = RetryPolicy(
            max_retries=policy.max_retries,
            base_delay_s=policy.base_delay_s,
            multiplier=policy.multiplier,
            max_delay_s=policy.max_delay_s,
            jitter=policy.jitter,
            seed=policy.seed,
        )
        assert policy.schedule() == clone.schedule()
        assert policy.schedule() == policy.schedule()

    @given(policy=policies)
    def test_schedule_length_matches_retry_budget(self, policy):
        assert len(policy.schedule()) == policy.max_retries

    @given(policy=policies)
    def test_every_delay_is_bounded(self, policy):
        for delay in policy.schedule():
            assert 0.0 <= delay <= policy.max_delay_s

    @given(policy=policies)
    def test_base_schedule_is_monotone_and_capped(self, policy):
        schedule = [
            policy.base_delay_for(n) for n in range(1, policy.max_retries + 1)
        ]
        for earlier, later in zip(schedule, schedule[1:]):
            assert earlier <= later
        for delay in schedule:
            assert delay <= policy.max_delay_s

    @given(policy=policies)
    def test_jitter_band(self, policy):
        for attempt in range(1, policy.max_retries + 1):
            base = policy.base_delay_for(attempt)
            delay = policy.delay_for(attempt)
            assert delay <= min(base * (1.0 + policy.jitter), policy.max_delay_s)
            assert delay >= min(base * (1.0 - policy.jitter), policy.max_delay_s)


def kept_prefix(schedule, budget):
    """The longest prefix of ``schedule`` whose total stays within budget."""
    kept, total = [], 0.0
    for delay in schedule:
        if total + delay > budget:
            break
        kept.append(delay)
        total += delay
    return tuple(kept)


class TestBudgetProperties:
    @settings(deadline=None)
    @given(policy=policies, budget=st.floats(0.01, 20.0, allow_nan=False))
    def test_bus_retries_never_overdraw_the_deadline(self, policy, budget):
        bus = MessageBus(metrics=MetricsRegistry())
        bus.register_handler("echo", lambda method, payload: {})
        FaultInjector(
            single_spec_plan(FaultSpec(kind=FaultKind.DROP))  # every attempt
        ).install_bus(bus)
        deadline = Deadline(budget)
        try:
            bus.call("echo", "ping", retry_policy=policy, deadline=deadline)
        except (DeadlineError, NetworkError):
            pass
        kept = kept_prefix(policy.schedule(), budget)
        assert deadline.spent_s <= budget
        assert bus.stats.retries == len(kept)
        assert bus.stats.calls == len(kept) + 1

    @given(policy=policies, budget=st.floats(0.01, 20.0, allow_nan=False))
    def test_charging_the_kept_schedule_always_fits(self, policy, budget):
        deadline = Deadline(budget)
        for delay in kept_prefix(policy.schedule(), budget):
            assert deadline.try_charge(delay)
        assert deadline.spent_s <= deadline.budget_s

    @given(
        budget=st.floats(0.01, 100.0, allow_nan=False),
        charges=st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=30),
    )
    def test_deadline_never_exceeds_budget(self, budget, charges):
        deadline = Deadline(budget)
        for charge in charges:
            deadline.try_charge(charge)
            assert deadline.spent_s <= deadline.budget_s
            assert deadline.remaining_s >= 0.0
        assert deadline.expired == (deadline.remaining_s == 0.0)
