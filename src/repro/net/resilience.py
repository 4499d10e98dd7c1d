"""Resilience primitives: retry policies, deadlines, circuit breakers.

The paper's interaction loop (IRR broadcast -> IoTA discovery -> TIPPERS
enforcement) runs over lossy, intermittently-connected building
infrastructure.  These primitives give every caller a *deterministic*
recovery story:

- :class:`RetryPolicy` -- exponential backoff with seeded jitter and a
  bounded retry budget.  The whole backoff schedule is a pure function
  of the policy's fields, so two runs with the same seed sleep the same
  simulated durations in the same order.
- :class:`Deadline` -- a per-call time budget.  The bus charges each
  retry's backoff delay against it (fault-injected latency goes to
  the bus statistics only); once a backoff would overdraw it, retrying
  stops with :class:`~repro.errors.DeadlineError`.
- :class:`CircuitBreaker` / :class:`BreakerBoard` -- per-endpoint
  breakers that trip after :data:`FAILURE_THRESHOLD` consecutive
  transport failures and reject calls while open.  Recovery is
  measured in *logical calls* (:data:`COOLDOWN_REJECTIONS` rejected
  attempts), never wall-clock time, keeping simulations reproducible.

Nothing here sleeps: delays are accounted (into bus statistics and the
deadline budget), matching the bus's simulated-latency model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import CircuitOpenError, DeadlineError

#: Consecutive transport failures that open an endpoint's breaker.
FAILURE_THRESHOLD = 5
#: Calls an open breaker refuses before it lets a half-open trial through.
COOLDOWN_REJECTIONS = 8


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter and a retry budget.

    ``max_retries`` is the number of *re*-sends after the first attempt.
    The delay before retry ``n`` (1-based) starts from
    ``base_delay_s * multiplier ** (n - 1)``, is jittered by up to
    ``jitter`` (a fraction, symmetric), and is always clamped to
    ``max_delay_s``.  Jitter is derived from ``seed`` and the attempt
    number only, so :meth:`schedule` is deterministic; it is computed
    once, when the policy is built.
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    _schedule: Tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")
        object.__setattr__(self, "_schedule", tuple(
            self.delay_for(n) for n in range(1, self.max_retries + 1)
        ))

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    def base_delay_for(self, attempt: int) -> float:
        """The pre-jitter delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        return min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )

    def delay_for(self, attempt: int) -> float:
        """The jittered, capped delay before retry ``attempt`` (1-based)."""
        base = self.base_delay_for(attempt)
        if not self.jitter:
            return base
        # Seeding a fresh RNG from (seed, attempt) keeps the jitter a
        # pure function of the policy, independent of call ordering.
        unit = random.Random("retry:%d:%d" % (self.seed, attempt)).uniform(-1.0, 1.0)
        return max(0.0, min(base * (1.0 + self.jitter * unit), self.max_delay_s))

    def schedule(self) -> Tuple[float, ...]:
        """The full jittered backoff schedule, one entry per retry."""
        return self._schedule


class Deadline:
    """A spend-down time budget for one logical call.

    The bus charges each retry's backoff delay against the budget;
    :meth:`try_charge` refuses charges that would overdraw it, and
    :meth:`charge` raises :class:`~repro.errors.DeadlineError` instead.
    """

    def __init__(self, budget_s: float) -> None:
        if budget_s <= 0:
            raise ValueError("deadline budget must be positive")
        self.budget_s = float(budget_s)
        self.spent_s = 0.0

    @property
    def remaining_s(self) -> float:
        return max(0.0, self.budget_s - self.spent_s)

    @property
    def expired(self) -> bool:
        return self.spent_s >= self.budget_s

    def try_charge(self, seconds: float) -> bool:
        """Charge ``seconds`` if the budget allows; report success."""
        if seconds < 0:
            raise ValueError("cannot charge a negative duration")
        if self.spent_s + seconds > self.budget_s:
            return False
        self.spent_s += seconds
        return True

    def charge(self, seconds: float) -> None:
        if not self.try_charge(seconds):
            raise DeadlineError(
                "deadline exhausted: %.3fs charge exceeds %.3fs remaining"
                % (seconds, self.remaining_s)
            )


class CircuitBreaker:
    """A deterministic per-endpoint circuit breaker.

    States follow the classic closed -> open -> half-open cycle, but
    the open state cools down after :data:`COOLDOWN_REJECTIONS`
    *rejected calls* rather than elapsed wall-clock time, so behaviour
    under a seeded simulation replays exactly.  A half-open trial that
    fails re-opens the breaker; one that succeeds closes it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self) -> None:
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.rejections_while_open = 0
        self.times_opened = 0

    def allow(self) -> bool:
        """Whether the next call may proceed (may transition to half-open)."""
        if self.state == self.OPEN:
            self.rejections_while_open += 1
            if self.rejections_while_open >= COOLDOWN_REJECTIONS:
                self.state = self.HALF_OPEN
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self.state = self.OPEN
            self.rejections_while_open = 0
            self.times_opened += 1

    def reset(self) -> None:
        """Administratively close the breaker (the service was restored).

        Used when an operator *knows* the endpoint is back -- e.g. a
        crashed shard re-registered after WAL recovery -- rather than
        waiting out the rejection-counted cooldown.
        """
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.rejections_while_open = 0


class BreakerBoard:
    """Lazily-created circuit breakers, one per bus target."""

    def __init__(self) -> None:
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, target: str) -> CircuitBreaker:
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = self._breakers[target] = CircuitBreaker()
        return breaker

    def check(self, target: str) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` when open."""
        if not self.breaker(target).allow():
            raise CircuitOpenError("circuit open for endpoint %r" % target)

    def record_success(self, target: str) -> None:
        self.breaker(target).record_success()

    def record_failure(self, target: str) -> None:
        self.breaker(target).record_failure()

    def reset(self, target: str) -> None:
        """Administratively close ``target``'s breaker (service restored)."""
        self.breaker(target).reset()

    def evict(self, target: str) -> bool:
        """Forget ``target``'s breaker entirely (endpoint decommissioned).

        Distinct from :meth:`reset`: a reset keeps the entry because the
        endpoint is expected back; eviction is for endpoints that are
        gone for good, so a long-lived campus that adds and removes
        buildings does not accumulate breaker state without bound.
        Returns whether an entry existed.
        """
        return self._breakers.pop(target, None) is not None

    def states(self) -> Dict[str, str]:
        return {target: b.state for target, b in sorted(self._breakers.items())}

