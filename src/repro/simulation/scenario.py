"""The end-to-end Figure-1 scenario.

Runs all ten interaction steps of the paper's Figure 1 on the synthetic
DBH and reports what happened at each step, with wall-clock timings.
This is both the library's flagship integration test and the FIG-1
benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.policy import catalog
from repro.core.reasoner.resolution import ResolutionStrategy
from repro.iota.assistant import IoTAssistant
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import PreferenceModel
from repro.irr.registry import IoTResourceRegistry
from repro.net.bus import MessageBus
from repro.services.concierge import SmartConcierge
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType


@dataclass
class StepResult:
    """One numbered step of Figure 1."""

    step: int
    title: str
    elapsed_s: float
    detail: str


@dataclass
class Figure1Report:
    """Everything the scenario produced."""

    steps: List[StepResult] = field(default_factory=list)
    notifications: int = 0
    conflicts: List[str] = field(default_factory=list)
    location_allowed_before_optout: Optional[bool] = None
    location_allowed_after_optout: Optional[bool] = None
    observations_stored: int = 0
    audit_summary: Dict[str, int] = field(default_factory=dict)

    def step_titled(self, step: int) -> StepResult:
        for result in self.steps:
            if result.step == step:
                return result
        raise KeyError(step)

    def total_elapsed_s(self) -> float:
        return sum(s.elapsed_s for s in self.steps)

    def as_rows(self) -> List[Tuple[int, str, float, str]]:
        return [(s.step, s.title, s.elapsed_s, s.detail) for s in self.steps]


def run_figure1_scenario(
    population: int = 25,
    mary_persona: str = "fundamentalist",
    seed: int = 7,
    capture_ticks: int = 10,
    strategy: ResolutionStrategy = ResolutionStrategy.NEGOTIATE,
) -> Figure1Report:
    """Run the ten steps of Figure 1 and report per-step outcomes.

    ``mary_persona`` controls the user under study: a fundamentalist
    Mary ends up opted out of location sharing, so the step-10 query is
    rejected -- the exact outcome Section II-C walks through.
    """
    report = Figure1Report()

    def timed(step: int, title: str, fn) -> object:
        start = time.perf_counter()
        value = fn()
        report.steps.append(
            StepResult(
                step=step,
                title=title,
                elapsed_s=time.perf_counter() - start,
                detail=str(value),
            )
        )
        return value

    tippers = make_dbh_tippers(strategy=strategy)
    inhabitants = generate_inhabitants(tippers.spatial, population, seed=seed)
    # Make the first inhabitant our "Mary" with the requested persona.
    mary = inhabitants[0]
    mary_id = mary.user_id
    for inhabitant in inhabitants:
        tippers.add_user(inhabitant.profile)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=seed)
    bus = MessageBus()
    bus.register("tippers", tippers)
    registry = IoTResourceRegistry("irr-dbh", tippers.spatial)
    bus.register("irr-dbh", registry)
    concierge = SmartConcierge(tippers)

    meeting_rooms = [
        s.space_id
        for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)
        if s.attributes.get("meeting_room") == "yes"
    ]
    offices = [s.space_id for s in tippers.spatial.spaces_of_type(SpaceType.ROOM)]

    # ------------------------------------------------------------ (1)
    def step1() -> str:
        tippers.define_policy(catalog.policy_1_comfort(offices))
        tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
        tippers.define_policy(catalog.policy_3_meeting_room_access(meeting_rooms))
        tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
        return "%d policies defined" % len(tippers.policy_manager)

    timed(1, "building admin defines policies", step1)

    # ---------------------------------------------------------- (2-3)
    noon = 12 * 3600.0

    def steps2_3() -> str:
        for tick in range(capture_ticks):
            now = noon + tick * 60.0
            world.step(now)
            tippers.tick(now, world)
        report.observations_stored = tippers.datastore.count()
        return "%d observations stored" % report.observations_stored

    timed(2, "sensors actuated; data captured and stored", steps2_3)

    # ------------------------------------------------------------ (4)
    def step4() -> str:
        document = tippers.policy_manager.compile_policy_document()
        settings = tippers.policy_manager.settings_space.to_document()
        registry.publish_resource(
            "dbh-building-policies", BUILDING_ID, document, settings=settings
        )
        registry.publish_service(
            "dbh-concierge", BUILDING_ID, concierge.policy_document()
        )
        return "%d advertisements published" % len(registry)

    timed(4, "policies published through the IRR", step4)

    # ------------------------------------------------------------ (7)
    # Mary's preference model is learned before discovery so that
    # notification relevance reflects her preferences (the paper's
    # step 7 feeds step 6).
    model = PreferenceModel()

    def step7() -> str:
        decisions = generate_decisions(PERSONAS[mary_persona], 150, seed=seed)
        model.fit(decisions)
        return "model trained on %d labeled decisions (accuracy %.2f)" % (
            len(decisions),
            model.accuracy(decisions),
        )

    timed(7, "preference model learned over time", step7)

    iota = IoTAssistant(
        mary_id,
        bus,
        model=model,
        registry_endpoints=["irr-dbh"],
    )

    # ---------------------------------------------------------- (5-6)
    def steps5_6() -> str:
        now = noon + capture_ticks * 60.0
        mary_location = world.location_of(mary_id) or BUILDING_ID
        discovery = iota.discover(mary_location, now)
        report.notifications = len(discovery.notifications)
        return "%d resources, %d services discovered; %d notifications shown" % (
            len(discovery.resources),
            len(discovery.services),
            report.notifications,
        )

    timed(5, "IoTA discovers registries and fetches policies", steps5_6)

    # Contrast query: before Mary's settings reach the building, the
    # sharing policy alone governs the request.
    pre_query = bus.call(
        "tippers",
        "locate_user",
        {
            "requester_id": concierge.service_id,
            "requester_kind": "building_service",
            "subject_id": mary_id,
            "now": noon + capture_ticks * 60.0,
        },
    )
    report.location_allowed_before_optout = bool(pre_query["allowed"])

    # ------------------------------------------------------------ (8)
    def step8() -> str:
        selection = iota.configure_building_settings(noon + 1000.0)
        report.conflicts = list(iota.reported_conflicts)
        preview = iota.fetch_effect_preview(noon + 1001.0)
        location_lines = [l for l in preview if l.startswith("location/")]
        return "selection %r submitted; %d conflicts reported; effect: %s" % (
            selection,
            len(report.conflicts),
            "; ".join(location_lines),
        )

    timed(8, "IoTA configures privacy settings with TIPPERS", step8)

    # ---------------------------------------------------------- (9-10)
    def steps9_10() -> str:
        now = noon + capture_ticks * 60.0
        before = bus.call(
            "tippers",
            "locate_user",
            {
                "requester_id": concierge.service_id,
                "requester_kind": "building_service",
                "subject_id": mary_id,
                "now": now,
            },
        )
        report.location_allowed_after_optout = bool(before["allowed"])
        return "service location query allowed=%s reasons=%s" % (
            before["allowed"],
            before["reasons"],
        )

    timed(9, "service queries Mary's location; TIPPERS enforces", steps9_10)

    report.audit_summary = tippers.audit.summary()
    return report
