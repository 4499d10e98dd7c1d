"""Unit tests for the TIPPERS facade and its bus endpoint."""

import pytest

from repro.core.enforcement import CompiledEnforcementEngine, EnforcementEngine
from repro.core.policy import catalog
from repro.core.policy.serialization import preference_to_dict
from repro.errors import PolicyError
from repro.net.bus import MessageBus, RpcError
from repro.obs.metrics import MetricsRegistry
from repro.storage.durable import StorageEngine
from repro.tippers.bms import TIPPERS
from repro.users.profile import UserProfile


class TestConstruction:
    def test_unknown_building_rejected(self, small_building):
        with pytest.raises(PolicyError):
            TIPPERS(small_building, "ghost-tower")

    def test_deploy_to_unknown_space_rejected(self, tippers):
        with pytest.raises(PolicyError):
            tippers.deploy_sensor("camera", "cam-x", "atlantis")

    def test_add_user_refreshes_context_groups(self, tippers):
        tippers.add_user(
            UserProfile(
                user_id="carol",
                name="Carol",
                groups=frozenset({"staff"}),
                device_macs=("aa:bb:cc:00:00:03",),
            )
        )
        assert "staff" in tippers.context.groups_of("carol")

    def test_remove_user_drops_context_groups(self, tippers):
        assert tippers.context.groups_of("mary")
        assert tippers.remove_user("mary")
        assert tippers.context.groups_of("mary") == frozenset()
        assert tippers.context.user_profiles == tippers.directory.group_map()

    def test_decisions_are_compiled_by_default(self, small_building):
        assert isinstance(
            TIPPERS(small_building, "b").engine, CompiledEnforcementEngine
        )
        interpreter = TIPPERS(small_building, "b", compile_decisions=False)
        assert type(interpreter.engine) is EnforcementEngine


class TestOperation:
    def test_retention_sweep_uses_policy_schedule(self, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(0.0, world)
        assert tippers.datastore.count("wifi_access_point") == 1
        # After the P6M retention elapses, the observation is purged.
        purged = tippers.run_retention(7 * 30 * 86400.0)
        assert purged >= 1
        assert tippers.datastore.count("wifi_access_point") == 0

    def test_comfort_control_actuates_occupied_rooms(self, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(0.0, world)  # motion recorded in b-1001
        actuated = tippers.run_comfort_control(60.0)
        assert actuated == 1
        assert tippers.sensor_manager.sensor("hvac-1").settings.get("fan_speed") == "auto"


class TestBusEndpoint:
    @pytest.fixture
    def bus(self, tippers):
        bus = MessageBus()
        bus.register("tippers", tippers)
        return bus

    def test_get_policy_document(self, bus):
        document = bus.call("tippers", "get_policy_document")
        assert document["resources"], "policies advertised"

    def test_get_settings_document(self, bus):
        document = bus.call("tippers", "get_settings_document")
        assert document["settings"][0]["select"]

    def test_submit_selection_reports_conflicts(self, bus):
        response = bus.call(
            "tippers",
            "submit_selection",
            {"user_id": "mary", "selection": {"location": "off"}},
        )
        assert response["conflicts"], "opt-out conflicts with mandatory policy"

    def test_submit_preference_over_wire(self, bus):
        payload = preference_to_dict(catalog.preference_2_no_location("mary"))
        response = bus.call("tippers", "submit_preference", {"preference": payload})
        assert response["conflicts"]

    def test_locate_user_over_wire(self, bus, tippers, world):
        world.put("mary", "aa:bb:cc:00:00:01", "b-1001")
        tippers.tick(100.0, world)
        response = bus.call(
            "tippers",
            "locate_user",
            {"requester_id": "svc", "subject_id": "mary", "now": 160.0},
        )
        assert response["allowed"]
        assert response["location"]["space_id"] == "b-1001"

    def test_room_occupancy_over_wire(self, bus):
        response = bus.call(
            "tippers",
            "room_occupancy",
            {"requester_id": "svc", "space_id": "b-1001", "now": 100.0},
        )
        assert response["allowed"]
        assert response["occupied"] is False

    def test_unknown_method_is_rpc_error(self, bus):
        with pytest.raises(RpcError):
            bus.call("tippers", "self_destruct")

    def test_application_errors_surface_as_rpc_errors(self, bus):
        with pytest.raises(RpcError):
            bus.call(
                "tippers",
                "submit_selection",
                {"user_id": "ghost", "selection": {"location": "off"}},
            )

    def test_malformed_payload_is_rpc_error(self, bus):
        with pytest.raises(RpcError):
            bus.call("tippers", "locate_user", {"subject_id": "mary"})

    @pytest.mark.parametrize(
        "malformed",
        [
            {"condition": {"kind": "all", "conditions": 5}},
            {"condition": None},
            {"condition": 7},
            {"strength": "x"},
        ],
    )
    def test_malformed_preference_is_counted_rpc_error(self, tippers, malformed):
        registry = MetricsRegistry()
        bus = MessageBus(metrics=registry)
        bus.register("tippers", tippers)
        payload = preference_to_dict(catalog.preference_2_no_location("mary"))
        payload.update(malformed)
        stored = tippers.preference_manager.count()
        with pytest.raises(RpcError):
            bus.call("tippers", "submit_preference", {"preference": payload})
        assert registry.total(
            "bus_rpc_errors_total",
            {"target": "tippers", "method": "submit_preference"},
        ) == 1
        assert tippers.preference_manager.count() == stored

    @pytest.mark.parametrize(
        "method,payload",
        [
            ("submit_selection", {"user_id": "mary", "selection": 5}),
            ("locate_user", {"requester_id": "svc", "subject_id": ["mary"], "now": 1.0}),
            ("locate_user", {"requester_id": "svc", "subject_id": "mary", "now": "x"}),
            ("locate_user", {"requester_id": 5, "subject_id": "mary", "now": 1.0}),
            ("room_occupancy", {"requester_id": "svc", "space_id": ["b-1001"], "now": 1.0}),
            ("room_occupancy", {"requester_id": ["svc"], "space_id": "b-1001", "now": 1.0}),
            ("preview_effects", {"user_id": ["mary"], "now": 1.0}),
            ("preview_effects", {"user_id": "mary", "now": "x"}),
            ("dsar_report", {"user_id": "mary", "now": "x"}),
            ("dsar_report", {"user_id": ["mary"], "now": 1.0}),
            ("dsar_erase", {"user_id": "mary", "now": "x"}),
            ("register_roaming", {"profile": 5, "home_building_id": "c"}),
            ("migrate_export", {"migration_id": "m1", "user_id": ["mary"], "to_building": "c"}),
            (
                "migrate_finalize",
                {"migration_id": "m1", "user_id": ["mary"], "to_building": "c"},
            ),
            (
                "migrate_import",
                {"migration_id": "m1", "user_id": "zed", "from_building": "c",
                 "snapshot": 5},
            ),
            (
                "migrate_import",
                {"migration_id": ["m1"], "user_id": "zed", "from_building": "c",
                 "snapshot": {}},
            ),
        ],
    )
    def test_wrong_shape_payload_is_counted_rpc_error(
        self, small_building, mary, tmp_path, method, payload
    ):
        registry = MetricsRegistry()
        storage = StorageEngine(str(tmp_path), metrics=registry)
        tippers = TIPPERS(small_building, "b", owner_name="UCI", storage=storage)
        tippers.define_policy(catalog.policy_service_sharing("b"))
        tippers.add_user(mary)
        bus = MessageBus(metrics=registry)
        bus.register("tippers", tippers)
        next_lsn = storage.wal.next_lsn
        with pytest.raises(RpcError):
            bus.call("tippers", method, payload)
        assert registry.total(
            "bus_rpc_errors_total", {"target": "tippers", "method": method}
        ) == 1
        assert storage.wal.next_lsn == next_lsn
        assert len(tippers.audit) == 0
        assert tippers.preference_manager.count() == 0
        assert [p.user_id for p in tippers.directory] == ["mary"]
        storage.close()
