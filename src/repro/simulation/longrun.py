"""Multi-day "week in the life" runs.

:func:`run_week` drives the complete stack -- capture, retention,
comfort control, services querying, IoTAs configuring settings per
persona -- for several simulated days and collects system-level
metrics.  This is the soak test behind the SCALE-4 benchmark and a
convenient workload generator for profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.policy import catalog
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.errors import ServiceError
from repro.iota.assistant import IoTAssistant
from repro.iota.personas import generate_decisions
from repro.iota.preference_model import PreferenceModel
from repro.irr.mud import auto_provision
from repro.irr.registry import IoTResourceRegistry
from repro.net.bus import MessageBus
from repro.services.concierge import SmartConcierge
from repro.services.food_delivery import FoodDeliveryService
from repro.services.meeting import SmartMeeting
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType

@dataclass
class WeekReport:
    """Aggregate metrics of one multi-day run."""

    days: int
    population: int
    observations_sampled: int = 0
    observations_stored: int = 0
    observations_purged: int = 0
    queries_total: int = 0
    queries_denied: int = 0
    deliveries_attempted: int = 0
    deliveries_made: int = 0
    hvac_actuations: int = 0
    selections: Dict[str, int] = field(default_factory=dict)
    audit_summary: Dict[str, int] = field(default_factory=dict)

    @property
    def denial_rate(self) -> float:
        return self.queries_denied / self.queries_total if self.queries_total else 0.0


def run_week(
    days: int = 5,
    population: int = 30,
    ticks_per_day: int = 24,
    seed: int = 9,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
    compile_decisions: bool = True,
) -> WeekReport:
    """Run ``days`` simulated days and return the metric report.

    Each day: capture sweeps around the clock, comfort control at each
    sweep, a Concierge locate query and a lunch delivery run at noon,
    and a retention sweep at midnight.  On day 0 every inhabitant's
    IoTA trains on persona decisions and configures building settings.
    """
    tippers = make_dbh_tippers(
        strategy=strategy, compile_decisions=compile_decisions
    )
    rooms = [s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)]
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))

    inhabitants = generate_inhabitants(tippers.spatial, population, seed=seed)
    for person in inhabitants:
        tippers.add_user(person.profile)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)

    bus = MessageBus()
    bus.register("tippers", tippers)
    registry = IoTResourceRegistry("irr-dbh", tippers.spatial)
    bus.register("irr-dbh", registry)
    auto_provision(registry, tippers)

    concierge = SmartConcierge(tippers)
    meetings = SmartMeeting(tippers)
    food = FoodDeliveryService(tippers)

    report = WeekReport(days=days, population=population)

    # A recurring morning meeting gives the meeting service (and its
    # occupancy queries) daily traffic.
    organizer = inhabitants[0].user_id
    attendee = inhabitants[1].user_id if population > 1 else organizer

    # Day 0: every inhabitant's assistant configures settings.
    for index, person in enumerate(inhabitants):
        model = PreferenceModel().fit(
            generate_decisions(person.persona, 120, seed=seed + index, noise=0.05)
        )
        assistant = IoTAssistant(
            person.user_id, bus, model=model, registry_endpoints=["irr-dbh"]
        )
        selection = assistant.configure_building_settings(now=0.0)
        choice = selection.get("location", "?")
        report.selections[choice] = report.selections.get(choice, 0) + 1
        if index % 3 == 0:
            food.subscribe(person.user_id)

    tick_spacing = 86400.0 / ticks_per_day
    for day in range(days):
        morning = day * 86400.0 + 9 * 3600.0
        try:
            meetings.book(
                organizer,
                [attendee],
                start=morning,
                end=morning + 3600.0,
                now=morning - 1800.0,
                title="standup day %d" % day,
            )
        except ServiceError:
            # Every room booked/occupied: acceptable on busy days.
            pass
        for tick in range(ticks_per_day):
            now = day * 86400.0 + tick * tick_spacing
            world.step(now, dt_s=tick_spacing)
            stats = tippers.tick(now, world)
            report.observations_sampled += stats.sampled
            report.observations_stored += stats.stored
            hour = (now % 86400.0) / 3600.0
            if 8.0 <= hour <= 18.0:
                report.hvac_actuations += tippers.run_comfort_control(now)
            if abs(hour - 12.0) < (tick_spacing / 3600.0) / 2.0:
                # Noon: services get busy.
                for person in inhabitants[: max(1, population // 5)]:
                    response = concierge.find_person(person.user_id, now)
                    report.queries_total += 1
                    if not response.allowed:
                        report.queries_denied += 1
                attempts = food.lunch_run(now)
                report.deliveries_attempted += len(attempts)
                report.deliveries_made += sum(1 for a in attempts if a.delivered)
        # Midnight retention sweep.
        report.observations_purged += tippers.run_retention((day + 1) * 86400.0)

    report.audit_summary = tippers.audit.summary()
    return report
