"""ISO-8601 durations for retention periods.

Figure 2 of the paper expresses retention as ``"P6M"`` (six months).
:class:`Duration` parses and formats the ISO-8601 duration syntax
(``PnYnMnDTnHnMnS`` plus the week form ``PnW``) and converts to seconds
using the usual civil approximations (1 year = 365 days, 1 month = 30
days), which is what retention enforcement needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import SchemaError

_DURATION_RE = re.compile(
    r"^P"
    r"(?:(?P<years>\d+)Y)?"
    r"(?:(?P<months>\d+)M)?"
    r"(?:(?P<weeks>\d+)W)?"
    r"(?:(?P<days>\d+)D)?"
    r"(?:T"
    r"(?:(?P<hours>\d+)H)?"
    r"(?:(?P<minutes>\d+)M)?"
    r"(?:(?P<seconds>\d+)S)?"
    r")?$"
)

#: One simulated (and civil) day and hour.  Every clock in the system
#: counts seconds from its epoch; hours of the day and day numbers are
#: taken modulo a day.
SECONDS_PER_DAY = 86400
SECONDS_PER_HOUR = 3600

_SECONDS_PER = {
    "years": 365 * SECONDS_PER_DAY,
    "months": 30 * SECONDS_PER_DAY,
    "weeks": 7 * SECONDS_PER_DAY,
    "days": SECONDS_PER_DAY,
    "hours": SECONDS_PER_HOUR,
    "minutes": 60,
    "seconds": 1,
}


@dataclass(frozen=True, order=False)
class Duration:
    """An ISO-8601 duration with integer components."""

    years: int = 0
    months: int = 0
    weeks: int = 0
    days: int = 0
    hours: int = 0
    minutes: int = 0
    seconds: int = 0

    def __post_init__(self) -> None:
        for name in _SECONDS_PER:
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise SchemaError(
                    "duration component %s must be a non-negative int, got %r"
                    % (name, value)
                )

    @classmethod
    def parse(cls, text: str) -> "Duration":
        """Parse an ISO-8601 duration string like ``"P6M"``.

        Raises :class:`SchemaError` on malformed input, including the
        bare ``"P"`` / ``"PT"`` forms that carry no components.
        """
        if not isinstance(text, str):
            raise SchemaError("duration must be a string, got %r" % (text,))
        match = _DURATION_RE.match(text)
        if match is None:
            raise SchemaError("malformed ISO-8601 duration %r" % text)
        parts = {k: int(v) for k, v in match.groupdict().items() if v is not None}
        if not parts:
            raise SchemaError("duration %r has no components" % text)
        return cls(**parts)

    @classmethod
    def from_seconds(cls, total: float) -> "Duration":
        """The coarsest exact decomposition of ``total`` seconds.

        Days are the largest unit used so the result is calendar-exact
        (no month/year approximation on the way back in).
        """
        if total < 0:
            raise SchemaError("duration seconds must be non-negative")
        remaining = int(total)
        days, remaining = divmod(remaining, SECONDS_PER_DAY)
        hours, remaining = divmod(remaining, SECONDS_PER_HOUR)
        minutes, seconds = divmod(remaining, 60)
        return cls(days=days, hours=hours, minutes=minutes, seconds=seconds)

    def total_seconds(self) -> int:
        """Approximate length in seconds (365-day years, 30-day months)."""
        return sum(getattr(self, name) * factor for name, factor in _SECONDS_PER.items())

    def isoformat(self) -> str:
        """The canonical ISO-8601 string, e.g. ``"P6M"`` or ``"PT30S"``."""
        date_part = ""
        if self.years:
            date_part += "%dY" % self.years
        if self.months:
            date_part += "%dM" % self.months
        if self.weeks:
            date_part += "%dW" % self.weeks
        if self.days:
            date_part += "%dD" % self.days
        time_part = ""
        if self.hours:
            time_part += "%dH" % self.hours
        if self.minutes:
            time_part += "%dM" % self.minutes
        if self.seconds:
            time_part += "%dS" % self.seconds
        if not date_part and not time_part:
            return "PT0S"
        return "P" + date_part + ("T" + time_part if time_part else "")

    def __str__(self) -> str:
        return self.isoformat()

    def __lt__(self, other: "Duration") -> bool:
        return self.total_seconds() < other.total_seconds()

    def __le__(self, other: "Duration") -> bool:
        return self.total_seconds() <= other.total_seconds()

    def __gt__(self, other: "Duration") -> bool:
        return self.total_seconds() > other.total_seconds()

    def __ge__(self, other: "Duration") -> bool:
        return self.total_seconds() >= other.total_seconds()
