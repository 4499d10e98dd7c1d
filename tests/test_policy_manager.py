"""Unit tests for the building policy manager."""

import pytest

from repro.core.enforcement.engine import EnforcementEngine
from repro.core.language.document import ResourcePolicyDocument
from repro.core.language.duration import Duration
from repro.core.policy import catalog
from repro.core.policy.building import BuildingPolicy
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex
from repro.errors import PolicyError
from repro.sensors.ontology import default_ontology
from repro.spatial.model import build_simple_building
from repro.tippers.datastore import Datastore
from repro.tippers.policy_manager import PolicyManager
from repro.tippers.sensor_manager import SensorManager


@pytest.fixture
def manager():
    spatial = build_simple_building("b", 2, 4)
    return PolicyManager(
        PolicyIndex(), spatial, default_ontology(), "b", owner_name="UCI"
    )


class TestLifecycle:
    def test_define_and_get(self, manager):
        policy = manager.define(catalog.policy_2_emergency_location("b"))
        assert manager.get(policy.policy_id) is policy
        assert len(manager) == 1

    def test_duplicate_rejected(self, manager):
        manager.define(catalog.policy_2_emergency_location("b"))
        with pytest.raises(PolicyError):
            manager.define(catalog.policy_2_emergency_location("b"))

    def test_unknown_space_rejected(self, manager):
        with pytest.raises(PolicyError):
            manager.define(catalog.policy_2_emergency_location("atlantis"))

    def test_unknown_sensor_type_rejected(self, manager):
        bad = BuildingPolicy(
            policy_id="x", name="x", description="d", sensor_types=("sonar",)
        )
        with pytest.raises(PolicyError):
            manager.define(bad)

    def test_retire(self, manager):
        manager.define(catalog.policy_2_emergency_location("b"))
        manager.retire("policy-2-emergency")
        assert len(manager) == 0
        with pytest.raises(PolicyError):
            manager.retire("policy-2-emergency")

    def test_policies_sorted(self, manager):
        manager.define(catalog.policy_service_sharing("b"))
        manager.define(catalog.policy_2_emergency_location("b"))
        ids = [p.policy_id for p in manager.policies()]
        assert ids == sorted(ids)


class TestRetentionSchedule:
    def test_strictest_retention_wins(self, manager):
        manager.define(catalog.policy_2_emergency_location("b"))  # wifi P6M
        manager.define(
            BuildingPolicy(
                policy_id="short",
                name="short",
                description="d",
                sensor_types=("wifi_access_point",),
                retention=Duration.parse("P7D"),
            )
        )
        schedule = manager.retention_by_sensor_type()
        assert schedule["wifi_access_point"] == 7 * 86400

    def test_policy_without_retention_ignored(self, manager):
        manager.define(catalog.policy_service_sharing("b"))
        assert manager.retention_by_sensor_type() == {}


class TestDocumentCompilation:
    def test_compiled_document_validates(self, manager):
        manager.define(catalog.policy_2_emergency_location("b"))
        manager.define(catalog.policy_1_comfort(["b-1001"]))
        document = manager.compile_policy_document()
        # to_dict validates against the Figure-2 schema internally.
        data = document.to_dict()
        assert ResourcePolicyDocument.from_dict(data) == document

    def test_document_carries_retention_and_owner(self, manager):
        manager.define(catalog.policy_2_emergency_location("b"))
        resource = manager.compile_policy_document().resources[0]
        assert resource.retention.isoformat() == "P6M"
        assert resource.owner_name == "UCI"
        assert resource.sensor_type == "wifi_access_point"

    def test_one_resource_per_policy_sensor_pair(self, manager):
        manager.define(catalog.policy_1_comfort(["b-1001"]))  # 2 sensor types
        document = manager.compile_policy_document()
        assert len(document.resources) == 2

    def test_empty_manager_cannot_compile(self, manager):
        with pytest.raises(PolicyError):
            manager.compile_policy_document()


class TestActuation:
    @pytest.fixture
    def sensor_manager(self, manager):
        engine = EnforcementEngine(context=EvaluationContext())
        sm = SensorManager(engine, Datastore(), enforce_capture=False)
        sm.deploy("hvac_unit", "hvac-1", "b-1001")
        sm.deploy("hvac_unit", "hvac-2", "b-1002")
        return sm

    def test_policy1_pipeline(self, manager, sensor_manager):
        manager.define(catalog.policy_1_comfort(["b-1001", "b-1002"], setpoint_f=68.0))
        occupied = {"b-1001": True, "b-1002": False}
        actuated = manager.run_actuations(
            sensor_manager, triggers={"occupied": lambda s: occupied[s]}
        )
        assert actuated == 1
        assert sensor_manager.sensor("hvac-1").settings.get("setpoint_f") == 68.0
        # The unoccupied room's unit keeps its default setpoint.
        assert sensor_manager.sensor("hvac-2").settings.get("setpoint_f") == 70.0

    def test_missing_trigger_raises(self, manager, sensor_manager):
        manager.define(catalog.policy_1_comfort(["b-1001"]))
        with pytest.raises(PolicyError):
            manager.run_actuations(sensor_manager, triggers={})

    def test_always_trigger(self, manager, sensor_manager):
        manager.define(catalog.policy_3_meeting_room_access(["b-1001"]))
        sm = sensor_manager
        sm.deploy("id_card_reader", "rd-1", "b-1001")
        actuated = manager.run_actuations(sm, triggers={})
        assert actuated == 1

    def test_actuation_descends_hierarchy(self, manager, sensor_manager):
        # Policy scoped to the whole building finds room-level sensors.
        manager.define(
            BuildingPolicy(
                policy_id="building-wide",
                name="n",
                description="d",
                space_ids=("b",),
                actuations=(
                    catalog.policy_3_meeting_room_access(["b-1001"]).actuations[0],
                ),
                sensor_types=("id_card_reader",),
            )
        )
        sensor_manager.deploy("id_card_reader", "rd-9", "b-2003")
        actuated = manager.run_actuations(sensor_manager, triggers={})
        assert actuated == 1


class TestEvents:
    def test_roster_lifecycle(self, manager):
        manager.register_event("icdcs", "b-1004")
        manager.register_participant("icdcs", "mary")
        assert manager.event_roster("icdcs") == {"mary"}
        assert manager.event_space("icdcs") == "b-1004"

    def test_unknown_event(self, manager):
        with pytest.raises(PolicyError):
            manager.register_participant("ghost", "mary")
        with pytest.raises(PolicyError):
            manager.event_roster("ghost")
        with pytest.raises(PolicyError):
            manager.event_space("ghost")

    def test_event_space_must_exist(self, manager):
        with pytest.raises(PolicyError):
            manager.register_event("x", "atlantis")
