"""A third-party food-delivery service.

"A food delivery company can automatically locate and deliver food to
building inhabitants during lunch time" (Section III-B).  Being a third
party, its requests carry
:attr:`~repro.core.policy.base.RequesterKind.THIRD_PARTY_SERVICE`, so
users can opt out of third-party sharing wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.language.builder import ServicePolicyBuilder
from repro.core.language.duration import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.language.vocabulary import Purpose
from repro.errors import ServiceError
from repro.services.base import BuildingService


@dataclass(frozen=True)
class DeliveryAttempt:
    """The outcome of one delivery."""

    user_id: str
    delivered: bool
    space_id: Optional[str]
    reason: str


class FoodDeliveryService(BuildingService):
    """Locates subscribers at lunch time and delivers."""

    LUNCH_START_HOUR = 11.5
    LUNCH_END_HOUR = 13.5

    def __init__(self, tippers, service_id: str = "food-delivery") -> None:
        super().__init__(service_id, tippers, third_party=True, developer_name="LunchCo")
        self._subscribers: List[str] = []

    def _describe(self, builder: ServicePolicyBuilder) -> None:
        builder.observes(
            "location",
            "Your in-building location is read at lunch time to bring your "
            "order to you",
            inferred=["location"],
        ).purpose(
            "providing_service",
            "Food orders are delivered to your current location.",
        )

    def subscribe(self, user_id: str) -> None:
        if user_id not in self.tippers.directory:
            raise ServiceError("unknown user %r" % user_id)
        if user_id not in self._subscribers:
            self._subscribers.append(user_id)

    def unsubscribe(self, user_id: str) -> None:
        if user_id in self._subscribers:
            self._subscribers.remove(user_id)

    @property
    def subscribers(self) -> Tuple[str, ...]:
        return tuple(self._subscribers)

    def _is_lunch_time(self, now: float) -> bool:
        hour = (now % SECONDS_PER_DAY) / SECONDS_PER_HOUR
        return self.LUNCH_START_HOUR <= hour < self.LUNCH_END_HOUR

    def deliver(self, user_id: str, now: float) -> DeliveryAttempt:
        """Attempt a delivery to ``user_id`` right now."""
        if user_id not in self._subscribers:
            return DeliveryAttempt(user_id, False, None, "not subscribed")
        if not self._is_lunch_time(now):
            return DeliveryAttempt(user_id, False, None, "outside lunch window")
        response = self.tippers.request_manager.locate_user(
            self.service_id,
            self.requester_kind,
            user_id,
            now,
            purpose=Purpose.PROVIDING_SERVICE,
        )
        if not response.allowed:
            return DeliveryAttempt(
                user_id, False, None, "location sharing denied: %s" % "; ".join(response.reasons)
            )
        if response.value is None or response.value.space_id == "unknown":
            return DeliveryAttempt(user_id, False, None, "user not locatable")
        return DeliveryAttempt(
            user_id, True, response.value.space_id, "delivered at %s granularity" % response.granularity.value
        )

    def lunch_run(self, now: float) -> List[DeliveryAttempt]:
        """Deliver to every subscriber."""
        return [self.deliver(user_id, now) for user_id in self._subscribers]
