"""The building admin's toolkit: lint, auto-provision, audit, erase.

The paper's Section V lists the open problems of running a
privacy-aware building day to day.  This example walks an admin through
the corresponding tools:

1. *Policy linting* (Section V-A): a deliberately sloppy policy set is
   analyzed before activation; the linter catches the shadowed policy,
   the over-collection, the unbounded retention, and the deployed
   sensors nobody authorized.
2. *Automated IRR setup* (Section V-B): the registry is provisioned
   from Manufacturer Usage Descriptions instead of hand-written
   documents -- one advertisement per deployed sensor type.
3. *Transparency* : a subject access report shows one inhabitant
   everything the building holds about her, and an erasure request
   wipes it (leaving an audit trail that it happened).

Run:  python examples/building_admin_toolkit.py
"""

import dataclasses

from repro.analysis import PolicyLinter, Severity
from repro.core.language.vocabulary import DataCategory, GranularityLevel, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DecisionPhase, Effect
from repro.core.policy.building import BuildingPolicy
from repro.irr.mud import auto_provision
from repro.irr.registry import IoTResourceRegistry
from repro.simulation.dbh import BUILDING_ID, make_dbh_tippers
from repro.simulation.inhabitants import generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.tippers.dsar import erase_subject, subject_access_report

NOON = 12 * 3600.0


def main() -> None:
    tippers = make_dbh_tippers()

    # ------------------------------------------------------------ 1
    print("== 1. Linting a draft policy set ==")
    # Oops: the draft only covers Wi-Fi and cameras, so every other
    # deployed sensor type is authorized by nothing.
    draft = [
        catalog.policy_2_emergency_location(BUILDING_ID),
        # Oops: a blanket deny that shadows the research policy below.
        BuildingPolicy(
            policy_id="deny-research",
            name="No research data",
            description="d",
            effect=Effect.DENY,
            purposes=(Purpose.RESEARCH,),
        ),
        BuildingPolicy(
            policy_id="research-collection",
            name="Research data collection",
            description="d",
            categories=(DataCategory.LOCATION,),
            sensor_types=("wifi_access_point",),
            purposes=(Purpose.RESEARCH,),
            granularity=GranularityLevel.PRECISE,  # also over-collection
            phases=(DecisionPhase.CAPTURE, DecisionPhase.STORAGE),
        ),
        # Oops: personal data with no retention bound.
        BuildingPolicy(
            policy_id="camera-security",
            name="Cameras for security",
            description="d",
            categories=(DataCategory.PRESENCE,),
            sensor_types=("camera",),
            purposes=(Purpose.SECURITY,),
        ),
    ]
    deployed = {s.sensor_type for s in tippers.sensor_manager.sensors()}
    findings = PolicyLinter(deployed_sensor_types=deployed).lint_policies(draft)
    for finding in findings:
        print("  ", finding)
    errors = [f for f in findings if f.severity is Severity.ERROR]
    print("   -> %d findings (%d errors); fix before activation"
          % (len(findings), len(errors)))

    # Activate a clean set instead.
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
    tippers.define_policy(
        dataclasses.replace(draft[3], retention=catalog.policy_2_emergency_location(BUILDING_ID).retention)
    )

    # ------------------------------------------------------------ 2
    print()
    print("== 2. Auto-provisioning the IRR from MUD profiles ==")
    registry = IoTResourceRegistry("irr-dbh", tippers.spatial)
    published = auto_provision(registry, tippers)
    for advertisement in published:
        resource = advertisement.resource_document().resources[0]
        retention = resource.retention.isoformat() if resource.retention else "unbounded"
        settings = "configurable" if advertisement.settings is not None else "fixed"
        print("   %-28s retention=%-5s %s" % (resource.sensor_type, retention, settings))
    print("   -> %d advertisements published without hand-authoring" % len(published))

    # ------------------------------------------------------------ 3
    print()
    print("== 3. Subject access and erasure ==")
    inhabitants = generate_inhabitants(tippers.spatial, 10, seed=2)
    for person in inhabitants:
        tippers.add_user(person.profile)
    world = BuildingWorld(tippers.spatial, inhabitants, seed=2)
    for tick in range(5):
        now = NOON + tick * 60.0
        world.step(now)
        tippers.tick(now, world)
    mary = inhabitants[0].user_id
    report = subject_access_report(tippers, mary, NOON + 400.0)
    for line in report.summary_lines():
        print("  ", line)
    receipt = erase_subject(tippers, mary, NOON + 500.0, withdraw_preferences=True)
    print("   erasure: %d observations deleted" % receipt.erased_observations)
    after = subject_access_report(tippers, mary, NOON + 600.0)
    print("   observations remaining afterwards:", after.observations_total)


if __name__ == "__main__":
    main()
