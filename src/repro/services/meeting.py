"""The Smart Meeting service.

"Smart Meeting service, which can help organize meetings more
efficiently" (Section III-B).  It finds free rooms from occupancy data,
books meetings, and answers detail queries -- the latter gated by each
participant's permission (Preference 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.language.builder import ServicePolicyBuilder
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy.base import DataRequest, DecisionPhase
from repro.errors import ServiceError
from repro.services.base import BuildingService
from repro.spatial.model import SpaceType
from repro.tippers.request_manager import QueryResponse

_meeting_ids = itertools.count(1)


@dataclass(frozen=True)
class Meeting:
    """A booked meeting."""

    meeting_id: str
    organizer_id: str
    participant_ids: Tuple[str, ...]
    space_id: str
    start: float
    end: float
    title: str = ""

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end and start < self.end


class SmartMeeting(BuildingService):
    """Books rooms and shares meeting details, permission-gated."""

    def __init__(self, tippers, service_id: str = "smart-meeting") -> None:
        super().__init__(service_id, tippers)
        self._meetings: Dict[str, Meeting] = {}

    def _describe(self, builder: ServicePolicyBuilder) -> None:
        builder.observes(
            "occupancy",
            "Room occupancy is read to find free meeting rooms",
            inferred=["occupancy"],
        ).observes(
            "meeting_details",
            "Meeting titles, rooms, times and participant lists are stored",
            inferred=["meeting_details", "social_ties"],
        ).purpose(
            "providing_service",
            "Meeting information is used to organize meetings more "
            "efficiently.",
        )

    # ------------------------------------------------------------------
    # Room finding
    # ------------------------------------------------------------------
    def free_rooms(self, start: float, end: float, now: float) -> List[str]:
        """Rooms not booked in the window and not currently occupied.

        Occupancy is read through the policy-checked query path; rooms
        whose occupancy the service may not see are conservatively
        treated as busy.
        """
        if start >= end:
            raise ServiceError("empty booking window")
        candidates = []
        for space in self.tippers.spatial.spaces_of_type(SpaceType.ROOM):
            if any(
                meeting.space_id == space.space_id and meeting.overlaps(start, end)
                for meeting in self._meetings.values()
            ):
                continue
            response = self.tippers.request_manager.room_occupancy(
                self.service_id,
                self.requester_kind,
                space.space_id,
                now,
                purpose=Purpose.PROVIDING_SERVICE,
            )
            if response.allowed and response.value is False:
                candidates.append(space.space_id)
        return sorted(candidates)

    # ------------------------------------------------------------------
    # Booking
    # ------------------------------------------------------------------
    def book(
        self,
        organizer_id: str,
        participant_ids: List[str],
        start: float,
        end: float,
        now: float,
        title: str = "",
        space_id: Optional[str] = None,
    ) -> Meeting:
        """Book a meeting, picking a free room when none is given."""
        if organizer_id not in self.tippers.directory:
            raise ServiceError("unknown organizer %r" % organizer_id)
        for participant in participant_ids:
            if participant not in self.tippers.directory:
                raise ServiceError("unknown participant %r" % participant)
        if space_id is None:
            free = self.free_rooms(start, end, now)
            if not free:
                raise ServiceError("no free rooms in the window")
            space_id = free[0]
        elif space_id not in self.tippers.spatial:
            raise ServiceError("unknown space %r" % space_id)
        meeting = Meeting(
            meeting_id="meeting-%d" % next(_meeting_ids),
            organizer_id=organizer_id,
            participant_ids=tuple(sorted({organizer_id, *participant_ids})),
            space_id=space_id,
            start=start,
            end=end,
            title=title,
        )
        self._meetings[meeting.meeting_id] = meeting
        return meeting

    def cancel(self, meeting_id: str) -> None:
        if meeting_id not in self._meetings:
            raise ServiceError("unknown meeting %r" % meeting_id)
        del self._meetings[meeting_id]

    def meetings_of(self, user_id: str) -> List[Meeting]:
        return sorted(
            (
                m
                for m in self._meetings.values()
                if user_id in m.participant_ids
            ),
            key=lambda m: m.start,
        )

    # ------------------------------------------------------------------
    # Details (Preference 4's target)
    # ------------------------------------------------------------------
    def meeting_details(
        self, requester_id: str, meeting_id: str, now: float
    ) -> QueryResponse:
        """Details of a meeting, checked per participant.

        Each participant's membership is personal data: the response
        lists only participants whose preferences allow the disclosure.
        The meeting's existence is only revealed to requesters who are
        themselves participants.
        """
        meeting = self._meetings.get(meeting_id)
        if meeting is None:
            raise ServiceError("unknown meeting %r" % meeting_id)
        if requester_id not in meeting.participant_ids:
            return QueryResponse.denied(("requester is not a participant",))
        released: List[str] = []
        for participant in meeting.participant_ids:
            request = DataRequest(
                requester_id=self.service_id,
                requester_kind=self.requester_kind,
                phase=DecisionPhase.SHARING,
                category=DataCategory.MEETING_DETAILS,
                subject_id=participant,
                space_id=meeting.space_id,
                timestamp=now,
                purpose=Purpose.PROVIDING_SERVICE,
            )
            decision = self.tippers.engine.decide(request)
            if decision.allowed:
                released.append(participant)
        return QueryResponse(
            allowed=True,
            value={
                "meeting_id": meeting.meeting_id,
                "title": meeting.title,
                "space_id": meeting.space_id,
                "start": meeting.start,
                "end": meeting.end,
                "participants": released,
            },
            granularity=GranularityLevel.PRECISE,
            reasons=("participants filtered by preference",),
        )
