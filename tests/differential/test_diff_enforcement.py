"""Differential tests: compiled tables vs the reference interpreter.

Every test drives the :class:`~tests.differential.harness.EnginePair`
through generated workloads and asserts bit-for-bit equivalent
outcomes.  The example counts come from the profiles in ``conftest.py``
(``diff-ci`` runs >= 1000 generated cases across this module alone).
"""

from __future__ import annotations

import dataclasses

from hypothesis import example, given, strategies as st

from repro.core.enforcement.compiled import _flat_key

from repro.core.language.vocabulary import DataCategory, Purpose
from repro.core.policy import catalog
from repro.core.policy.base import DataRequest, DecisionPhase, Effect, RequesterKind
from repro.sensors.base import Observation
from repro.faults import FaultInjector, FaultKind, FaultSpec, single_spec_plan
from tests.differential.harness import EnginePair
from tests.differential.strategies import (
    REQUEST_EDITS,
    observation_runs,
    observations,
    policies,
    preferences,
    requests,
    runs,
    strategies,
    subject_requests,
)


@given(
    policy_list=st.lists(policies, max_size=6),
    preference_list=st.lists(preferences, max_size=6),
    request_list=st.lists(requests, min_size=1, max_size=15),
)
def test_static_rules_two_passes(policy_list, preference_list, request_list):
    """Same stream twice: the second pass is served mostly from compiled
    rows and must not change a single outcome, audit record, or counter."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for _ in range(2):
        for request in request_list:
            pair.decide(request)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    run=runs,
)
def test_mutation_interleavings(policy_list, preference_list, run):
    """Requests interleaved with policy/preference mutations: compiled
    rows must go stale exactly when the interpreter's answer changes."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for step in run:
        pair.apply(step)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


_WIFI = Observation(
    observation_id=1,
    sensor_id="ap-1",
    sensor_type="wifi_access_point",
    timestamp=1.0,
    space_id="b-1001",
    payload={"mac": "aa:bb"},
    subject_id="mary",
)


@given(
    catalog_capture=st.booleans(),
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    pool=st.lists(observations, min_size=1, max_size=4),
    run=observation_runs,
)
# Query rows one key field away from a reading's, then the reading: a
# lane key that drifted in that field would be served the wrong row.
@example(
    catalog_capture=True,
    policy_list=[],
    preference_list=[],
    pool=[_WIFI],
    run=[
        ("request_like", (0, DecisionPhase.STORAGE, 5.0, edit))
        for edit in REQUEST_EDITS[1:]
    ]
    + [("observe", (0, DecisionPhase.STORAGE, 6.0))],
)
def test_observation_lane(catalog_capture, policy_list, preference_list, pool, run):
    """Capture-path enforcement: the compiled engine's observation lane
    serves warm rows without building a DataRequest, and must return
    the same observation (or raise the same error), audit the same
    records and count the same decisions as the interpreter -- and keep
    the same TableStats as the compiled engine without the lane.

    A small pool of readings, each enforced at many timestamps, makes
    a warm row meet a negative timestamp or a mutation that stales it.
    ``catalog_capture`` adds the paper's two capture policies, so that
    preferences degrade allowed readings rather than every reading
    being denied for want of an authorizing policy."""
    if catalog_capture:
        policy_list = [
            catalog.policy_1_comfort(["b-1001", "b-1002", "b-2001"]),
            catalog.policy_2_emergency_location("b"),
        ] + policy_list
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for op, payload in run:
        if op == "observe":
            index, phase, timestamp = payload
            observation = dataclasses.replace(
                pool[index % len(pool)], timestamp=timestamp
            )
            pair.enforce(observation, phase)
        elif op == "request_like":
            index, phase, timestamp, edit = payload
            request = dataclasses.replace(
                pair.reference.request_for_observation(pool[index % len(pool)], phase),
                timestamp=timestamp,
                **edit,
            )
            pair.decide(request)
            pair.request_path.decide(request)
        else:
            pair.apply((op, payload))
    pair.assert_trails_equal()
    pair.assert_counters_equal()
    pair.assert_observation_lane_equal()


@given(
    observation=observations,
    phase=st.sampled_from(list(DecisionPhase)),
    timestamp=st.floats(0.0, 1e7),
)
def test_observation_key_is_the_request_key(observation, phase, timestamp):
    """The lane probes with ``observation_key``; it must be the key the
    request path computes for the same reading."""
    engine = EnginePair().compiled
    observation = dataclasses.replace(observation, timestamp=timestamp)
    assert engine.observation_key(observation, phase) == _flat_key(
        engine.request_for_observation(observation, phase)
    )


def _capture_pair(preference_list=()) -> EnginePair:
    return EnginePair(
        policies=[
            catalog.policy_1_comfort(["b-1001", "b-1002", "b-2001"]),
            catalog.policy_2_emergency_location("b"),
        ],
        preferences=list(preference_list),
    )


@given(
    preference_list=st.lists(preferences, max_size=5),
    pool=st.lists(observations, min_size=1, max_size=4),
)
def test_observation_lane_serves_warm_rows(preference_list, pool):
    """After a warm-up pass, a reading builds a DataRequest exactly when
    its key has no compiled row; the outcomes still match."""
    pair = _capture_pair(preference_list)
    readings = [
        (observation, phase)
        for observation in pool
        for phase in (DecisionPhase.CAPTURE, DecisionPhase.STORAGE)
    ]
    for observation, phase in readings:
        pair.enforce(dataclasses.replace(observation, timestamp=1.0), phase)
    engine = pair.compiled
    built = []
    request_for_observation = engine.request_for_observation

    def spy(observation, phase):
        built.append(observation)
        return request_for_observation(observation, phase)

    engine.request_for_observation = spy
    for observation, phase in readings:
        warm = engine.observation_key(observation, phase) in engine._rows
        before = len(built)
        pair.enforce(dataclasses.replace(observation, timestamp=2.0), phase)
        assert (len(built) == before) == warm
    pair.assert_trails_equal()
    pair.assert_counters_equal()
    pair.assert_observation_lane_equal()


def test_warm_reading_builds_no_request():
    """A warm wifi reading is served by the lane: with the request path
    broken, it is still enforced, audited and counted as a hit."""
    pair = _capture_pair()
    reading = _WIFI
    warm = pair.enforce(reading, DecisionPhase.STORAGE)
    assert isinstance(warm, Observation)
    engine = pair.compiled

    def broken(observation, phase):
        raise AssertionError("the request path ran for a warm reading")

    engine.request_for_observation = broken
    hits, trail = engine.stats.hits, len(engine.audit)
    later = dataclasses.replace(reading, timestamp=2.0)
    assert engine.enforce_observation(later, DecisionPhase.STORAGE) == (
        pair.reference.enforce_observation(later, DecisionPhase.STORAGE)
    )
    assert engine.stats.hits == hits + 1
    assert len(engine.audit) == trail + 1
    assert list(engine.audit)[-1].timestamp == 2.0


@given(
    policy_list=st.lists(policies, max_size=5),
    preference_list=st.lists(preferences, max_size=5),
    request_list=st.lists(requests, min_size=1, max_size=10),
    timestamps=st.lists(
        st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=3
    ),
)
@example(
    # Mary's office occupancy is hidden after hours: noon allows, the
    # evening denies, and the next noon allows again.
    policy_list=[catalog.policy_service_sharing("b")],
    preference_list=[catalog.preference_1_office_after_hours("mary", "b-1001")],
    request_list=[
        DataRequest(
            requester_id="svc-a",
            requester_kind=RequesterKind.BUILDING_SERVICE,
            phase=DecisionPhase.SHARING,
            category=DataCategory.OCCUPANCY,
            subject_id="mary",
            space_id="b-1001",
            timestamp=0.0,
            purpose=Purpose.PROVIDING_SERVICE,
        )
    ],
    timestamps=[12 * 3600.0, 20 * 3600.0, 36 * 3600.0],
)
def test_repeats_across_timestamps(
    policy_list, preference_list, request_list, timestamps
):
    """The same key at different times of day: a row may serve a repeat
    only when no candidate rule is time-sensitive, so temporal rules
    must be re-evaluated on every decide."""
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    for request in request_list:
        for timestamp in timestamps:
            pair.decide(dataclasses.replace(request, timestamp=timestamp))
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    strategy=strategies,
    policy_list=st.lists(policies, max_size=4),
    preference_list=st.lists(preferences, max_size=4),
    request_list=st.lists(subject_requests, min_size=1, max_size=10),
)
def test_every_resolution_strategy(
    strategy, policy_list, preference_list, request_list
):
    pair = EnginePair(
        policies=policy_list, preferences=preference_list, strategy=strategy
    )
    for _ in range(2):
        for request in request_list:
            pair.decide(request)
    pair.assert_trails_equal()


@given(
    policy_list=st.lists(policies, min_size=1, max_size=4),
    request=subject_requests,
    notes=st.lists(
        st.sampled_from(
            ["brownout: coarse granularity", "brownout: sampled", "degraded"]
        ),
        min_size=1,
        max_size=2,
        unique=True,
    ).map(tuple),
)
def test_noted_decisions_bypass_table(policy_list, request, notes):
    """Brownout-noted decisions must be equivalent too -- and never
    populate or consult the table on either side of a plain decide."""
    pair = EnginePair(policies=policy_list)
    pair.decide(request, notes)
    assert pair.compiled.table_rows == 0, "noted decision was compiled"
    pair.decide(request)  # plain miss compiles the row...
    pair.decide(request, notes)  # ...which a noted decide must not serve
    pair.decide(request)
    pair.assert_trails_equal()
    pair.assert_counters_equal()


@given(
    policy_list=st.lists(policies, min_size=1, max_size=4),
    preference_list=st.lists(preferences, max_size=4),
    base=subject_requests,
    before=st.integers(1, 4),
    during=st.integers(1, 4),
    after=st.integers(1, 4),
)
def test_fail_closed_fault_injection(
    policy_list, preference_list, base, before, during, after
):
    """An injected policy-fetch outage fails both engines closed
    identically, and the fail-closed denials are never compiled.

    Each engine gets its own injector (their step counters advance at
    different rates: a compiled hit fetches nothing), so the outage is
    delimited by install / uninstall rather than step windows, and the
    step number embedded in the fail-closed reason is masked by the
    harness.  Requests use a fresh requester id per step: a warm
    compiled row would otherwise (by design) keep serving during the
    outage, which is an availability difference, not an equivalence
    bug -- see test_warm_rows_serve_through_outage.
    """
    pair = EnginePair(policies=policy_list, preferences=preference_list)
    serial = [0]

    def fresh():
        serial[0] += 1
        return dataclasses.replace(base, requester_id="svc-%04d" % serial[0])

    for _ in range(before):
        pair.decide(fresh())

    outage = FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, target="policy_store")
    injectors = []
    for engine in (pair.reference, pair.compiled):
        injector = FaultInjector(single_spec_plan(outage))
        injector.install_policy_store(engine.store)
        injectors.append(injector)
    try:
        outage_requests = [fresh() for _ in range(during)]
        for request in outage_requests:
            expected, actual = pair.decide(request)
            assert expected.resolution.effect is Effect.DENY
            assert "fail-closed deny" in actual.resolution.reasons
    finally:
        for injector in injectors:
            injector.uninstall()

    assert pair.compiled.metrics.total("enforcement_failclosed_total") == during
    rows_after_outage = pair.compiled.table_rows
    for request in outage_requests:
        pair.decide(request)  # same keys again: must re-evaluate, not hit
    assert (
        pair.compiled.stats.hits == 0
    ), "a fail-closed denial was compiled into the table"
    assert pair.compiled.table_rows >= rows_after_outage
    for _ in range(after):
        pair.decide(fresh())
    pair.assert_trails_equal()
    pair.assert_counters_equal()


def test_warm_rows_serve_through_outage():
    """Documented availability asymmetry: a warm compiled row keeps
    serving during a policy-fetch outage (the row needs no fetch), while
    the interpreter fails closed.  This is the one deliberate
    non-equivalence, pinned here so a future change to either behavior
    is a conscious one."""
    pair = EnginePair(policies=[catalog.policy_service_sharing("b")])

    request = DataRequest(
        requester_id="svc-a",
        requester_kind=RequesterKind.BUILDING_SERVICE,
        phase=DecisionPhase.SHARING,
        category=DataCategory.LOCATION,
        subject_id="mary",
        space_id="b-1001",
        timestamp=100.0,
        purpose=Purpose.PROVIDING_SERVICE,
    )
    pair.decide(request)  # warm the row (and the oracle, pre-outage)
    warm = pair.compiled.decide(dataclasses.replace(request, timestamp=200.0))

    injector = FaultInjector(
        single_spec_plan(
            FaultSpec(kind=FaultKind.POLICY_FETCH_FAIL, target="policy_store")
        )
    )
    injector.install_policy_store(pair.compiled.store)
    try:
        during = pair.compiled.decide(dataclasses.replace(request, timestamp=300.0))
        assert during.resolution == warm.resolution, (
            "warm row must keep serving through the outage"
        )
        cold = dataclasses.replace(request, requester_id="svc-cold")
        denied = pair.compiled.decide(cold)
        assert denied.resolution.effect is Effect.DENY
        assert "fail-closed deny" in denied.resolution.reasons
    finally:
        injector.uninstall()


def test_capture_path_equivalence():
    """Capture ticks through a sensor manager store the same
    observations, and audit the same decisions, on both engines."""
    from repro.tippers.datastore import Datastore
    from repro.tippers.sensor_manager import SensorManager
    from repro.users.profile import UserDirectory, UserProfile
    from tests.conftest import StaticWorld

    pair = EnginePair(policies=[catalog.policy_2_emergency_location("b")])
    world = StaticWorld()
    world.put("mary", "aa:bb", "b-1001")
    managers, datastores = [], []
    for engine in (pair.reference, pair.compiled):
        directory = UserDirectory()
        directory.add(UserProfile(user_id="mary", name="M", device_macs=("aa:bb",)))
        datastores.append(Datastore())
        manager = SensorManager(engine, datastores[-1], directory=directory)
        manager.deploy("wifi_access_point", "ap-1", "b-1001", {"log_interval_s": 1.0})
        manager.deploy("camera", "cam-1", "b-f1-corridor")
        managers.append(manager)
    for tick in range(5):
        for manager in managers:
            manager.tick(float(tick * 2), world)
    assert pair.compiled.stats.hits > 0, "repeated capture must hit the table"
    assert managers[0].stats == managers[1].stats
    stored = [
        [dataclasses.replace(o, observation_id=0) for o in datastore.query()]
        for datastore in datastores
    ]
    assert stored[0] and stored[0] == stored[1]
    pair.assert_trails_equal()
    pair.assert_counters_equal()
