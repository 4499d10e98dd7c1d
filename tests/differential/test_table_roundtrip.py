"""Round-trip tests for compiled-table serialization through the WAL.

export -> ``log_compiled_table`` -> crash -> recovery -> ``import_table``
must hand back a table that serves decisions byte-identical to the
originals; stale or unreadable tables are discarded, never trusted.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, strategies as st

from repro.core.enforcement.engine import EnforcementEngine
from repro.core.enforcement.tables import TABLE_SCHEMA_VERSION
from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, RequesterKind
from repro.core.policy.conditions import EvaluationContext
from repro.core.reasoner.index import PolicyIndex
from repro.obs.metrics import MetricsRegistry
from repro.spatial.model import build_simple_building
from repro.storage.durable import StorageEngine
from repro.storage.recovery import replay_directory
from tests.differential.harness import EnginePair, resolution_key
from tests.differential.strategies import policies, preferences
from tests.property.strategies import requests

_SPATIAL = build_simple_building("b", 2, 4)


def request(subject="mary", timestamp=100.0, **overrides):
    defaults = dict(
        requester_id="concierge",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id=subject,
        space_id="b-1001",
        timestamp=timestamp,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    defaults.update(overrides)
    return DataRequest(**defaults)


def compiled_engine(store=None):
    engine = EnforcementEngine(
        store=store if store is not None else PolicyIndex(),
        context=EvaluationContext(spatial=_SPATIAL),
        metrics=MetricsRegistry(),
        compiled=True,
    )
    if store is None:
        engine.store.add_policy(catalog.policy_service_sharing("b"))
    return engine


class TestExportDeterminism:
    def test_export_is_deterministic_and_json_safe(self):
        engine = compiled_engine()
        for subject in ("mary", "bob", None):
            for category in (DataCategory.LOCATION, DataCategory.PRESENCE):
                engine.decide(request(subject=subject, category=category))
        first = engine.export_table()
        second = engine.export_table()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["schema"] == TABLE_SCHEMA_VERSION
        assert len(first["shards"]) == 3
        # Insertion order must not leak into the export: a second engine
        # warmed in a different order exports the identical document.
        other = compiled_engine()
        for subject in (None, "bob", "mary"):
            for category in (DataCategory.PRESENCE, DataCategory.LOCATION):
                other.decide(request(subject=subject, category=category))
        assert json.dumps(other.export_table(), sort_keys=True) == json.dumps(
            first, sort_keys=True
        )


class TestImportAdoption:
    def test_round_trip_serves_identical_decisions(self):
        source = compiled_engine()
        probes = [
            request(subject=subject, category=category)
            for subject in ("mary", "bob", None)
            for category in (DataCategory.LOCATION, DataCategory.PRESENCE)
        ]
        originals = [source.decide(probe) for probe in probes]
        data = json.loads(json.dumps(source.export_table()))

        target = compiled_engine()
        adopted = target.import_table(data)
        assert adopted == len(probes)
        assert target.table_rows == source.table_rows
        for probe, original in zip(probes, originals):
            served = target.decide(
                dataclasses.replace(probe, timestamp=probe.timestamp + 1)
            )
            assert resolution_key(served.resolution) == resolution_key(
                original.resolution
            )
        assert target.stats.hits == len(probes), "adopted rows must serve as hits"
        assert target.stats.misses == 0

    def test_policy_version_mismatch_discards_everything(self):
        source = compiled_engine()
        source.decide(request())
        data = source.export_table()
        target = compiled_engine()
        target.store.remove_policy("policy-service-sharing")
        target.store.add_policy(catalog.policy_service_sharing("b"))
        assert target.import_table(data) == 0
        assert target.table_rows == 0

    def test_pref_version_mismatch_skips_only_that_shard(self):
        source = compiled_engine()
        source.decide(request(subject="mary"))
        source.decide(request(subject="bob"))
        data = source.export_table()
        target = compiled_engine()
        target.store.add_preference(catalog.preference_2_no_location("mary"))
        assert target.import_table(data) == 1
        assert target.table_shards == 1
        assert not target.decide(request(subject="mary")).allowed

    def test_unknown_schema_raises(self):
        engine = compiled_engine()
        try:
            engine.import_table({"schema": TABLE_SCHEMA_VERSION + 1})
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("unknown schema must raise ValueError")


class TestWalRoundTrip:
    def test_logged_table_survives_crash_and_recovery(self, tmp_path):
        storage = StorageEngine(str(tmp_path))
        engine = compiled_engine()
        for subject in ("mary", "bob"):
            engine.decide(request(subject=subject))
        exported = engine.export_table()
        storage.log_compiled_table(exported)
        storage.close()  # simulated crash boundary: nothing else flushed

        state = replay_directory(str(tmp_path))
        assert state.compiled_table == json.loads(json.dumps(exported))
        revived = compiled_engine()
        assert revived.import_table(state.compiled_table) == 2
        for subject in ("mary", "bob"):
            revived.decide(request(subject=subject, timestamp=200.0))
        assert revived.stats.hits == 2

    def test_latest_logged_table_wins(self, tmp_path):
        storage = StorageEngine(str(tmp_path))
        engine = compiled_engine()
        engine.decide(request(subject="mary"))
        storage.log_compiled_table(engine.export_table())
        engine.decide(request(subject="bob"))
        storage.log_compiled_table(engine.export_table())
        storage.close()
        state = replay_directory(str(tmp_path))
        assert len(state.compiled_table["shards"]) == 2

    def test_compaction_drops_table_records(self, tmp_path):
        storage = StorageEngine(str(tmp_path), segment_bytes=256)
        engine = compiled_engine()
        engine.decide(request(subject="mary"))
        storage.log_compiled_table(engine.export_table())
        storage.compact()
        storage.close()
        state = replay_directory(str(tmp_path))
        assert state.compiled_table is None, (
            "a compacted log must not resurrect a stale advisory table"
        )


class TestRoundTripProperty:
    @given(
        policy_list=st.lists(policies, max_size=5),
        preference_list=st.lists(preferences, max_size=5),
        request_list=st.lists(requests, min_size=1, max_size=12),
    )
    def test_generated_tables_round_trip(
        self, policy_list, preference_list, request_list
    ):
        """For any generated rule set and warm-up stream, a JSON
        round-tripped table adopted into a fresh engine serves the same
        resolutions the reference interpreter produces."""
        pair = EnginePair(policies=policy_list, preferences=preference_list)
        for item in request_list:
            pair.decide(item)
        data = json.loads(json.dumps(pair.compiled.export_table()))

        fresh = EnginePair(policies=policy_list, preferences=preference_list)
        adopted = fresh.compiled.import_table(data)
        assert adopted == pair.compiled.table_rows
        for item in request_list:
            fresh.decide(item)
        fresh.assert_trails_equal()
