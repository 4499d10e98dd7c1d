"""User profiles.

"User Profile: models the concept of people in the environment.
Profiles can be based on groups (students, faculty, staff etc.) and
share common properties (e.g., access permissions).  A user can have
multiple profiles which includes information such as department,
affiliation, and office assignment." (Section IV-A.2.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import PolicyError


@dataclass(frozen=True)
class UserProfile:
    """One person known to the building."""

    user_id: str
    name: str
    groups: FrozenSet[str] = frozenset()
    department: str = ""
    affiliation: str = ""
    office_id: Optional[str] = None
    device_macs: Tuple[str, ...] = ()
    has_iota: bool = True

    def __post_init__(self) -> None:
        if not self.user_id:
            raise PolicyError("user_id must be non-empty")

    def in_group(self, group: str) -> bool:
        return group in self.groups


def profile_to_dict(profile: UserProfile) -> Dict[str, object]:
    """The wire form of a profile (roaming handoff, admin tooling)."""
    return {
        "user_id": profile.user_id,
        "name": profile.name,
        "groups": sorted(profile.groups),
        "department": profile.department,
        "affiliation": profile.affiliation,
        "office_id": profile.office_id,
        "device_macs": list(profile.device_macs),
        "has_iota": profile.has_iota,
    }


def profile_from_dict(data: Dict[str, object]) -> UserProfile:
    """Rebuild a profile from its wire form.

    Raises :class:`ValueError` for a form of the wrong shape: not an
    object, no ``user_id``, or groups or device MACs not iterable.
    """
    try:
        return UserProfile(
            user_id=str(data["user_id"]),
            name=str(data.get("name", "")),
            groups=frozenset(str(g) for g in data.get("groups", [])),  # type: ignore[union-attr]
            department=str(data.get("department", "")),
            affiliation=str(data.get("affiliation", "")),
            office_id=(
                None if data.get("office_id") is None else str(data["office_id"])
            ),
            device_macs=tuple(str(m) for m in data.get("device_macs", [])),  # type: ignore[union-attr]
            has_iota=bool(data.get("has_iota", True)),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError("malformed profile: %r" % exc) from None


class UserDirectory:
    """Registry of user profiles with device-to-owner resolution.

    The WiFi subsystem logs device MAC addresses; the directory is what
    lets the building attribute those observations to people (the
    re-identification step that makes "just a MAC address" personal
    data, as Section II-A explains).
    """

    def __init__(self) -> None:
        self._users: Dict[str, UserProfile] = {}
        self._mac_owner: Dict[str, str] = {}
        #: office id -> the ids of the users assigned to it, in
        #: directory order; the first is the office's owner.
        self._office_users: Dict[str, List[str]] = {}

    def add(self, profile: UserProfile) -> UserProfile:
        if profile.user_id in self._users:
            raise PolicyError("duplicate user %r" % profile.user_id)
        for mac in profile.device_macs:
            if mac in self._mac_owner:
                raise PolicyError(
                    "device %r already registered to %r" % (mac, self._mac_owner[mac])
                )
        self._users[profile.user_id] = profile
        for mac in profile.device_macs:
            self._mac_owner[mac] = profile.user_id
        if profile.office_id is not None:
            self._office_users.setdefault(profile.office_id, []).append(
                profile.user_id
            )
        return profile

    def remove(self, user_id: str) -> Optional[UserProfile]:
        """Forget a user (migration tombstone); idempotent.

        Returns the removed profile, or ``None`` when the user was
        already gone -- the tombstone step of a cross-shard migration
        must be safely repeatable after a crash.
        """
        profile = self._users.pop(user_id, None)
        if profile is not None:
            for mac in profile.device_macs:
                if self._mac_owner.get(mac) == user_id:
                    del self._mac_owner[mac]
            if profile.office_id is not None:
                self._office_users[profile.office_id].remove(user_id)
        return profile

    def get(self, user_id: str) -> UserProfile:
        try:
            return self._users[user_id]
        except KeyError:
            raise PolicyError("unknown user %r" % user_id) from None

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._users

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self) -> Iterator[UserProfile]:
        return iter(self._users.values())

    def owner_of_device(self, mac: str) -> Optional[str]:
        """The user owning device ``mac``, or ``None`` when unknown."""
        return self._mac_owner.get(mac)

    def office_owner(self, space_id: str) -> Optional[str]:
        """The first user, in directory order, whose office is ``space_id``."""
        occupants = self._office_users.get(space_id)
        return occupants[0] if occupants else None

    def members_of(self, group: str) -> List[UserProfile]:
        return [u for u in self._users.values() if u.in_group(group)]

    def group_map(self) -> Dict[str, FrozenSet[str]]:
        """user_id -> groups, the shape EvaluationContext consumes."""
        return {uid: user.groups for uid, user in self._users.items()}
