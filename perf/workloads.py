"""The four benchmark workloads over the IRR -> IoTA -> TIPPERS loop.

Constructing a workload class is one fresh set-up of its system, which
the harness times as ``setup_s``.  The harness then drives ``call`` in
a closed loop with inputs from ``next_op``, hands every result to
``observe`` and, after the timed window, runs ``checks`` (given a fresh
directory for any second instance they build).  Only public entry
points of the system are used.

Every input is drawn from the run's ``--seed``; the building and its
200 inhabitants are fixed, so seeds vary the traffic, not the building.
Every build write-ahead-logs into its own directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.policy import catalog
from repro.errors import AdmissionShedError
from repro.federation.campus import Campus
from repro.iota.assistant import IoTAssistant
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import PreferenceModel
from repro.irr.registry import IoTResourceRegistry
from repro.net.admission import AdmissionController, Priority
from repro.net.bus import MessageBus
from repro.net.resilience import BreakerBoard, Deadline
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NullTracer
from repro.services.concierge import SmartConcierge
from repro.simulation.dbh import BUILDING_ID, build_dbh_spatial, deploy_dbh_sensors
from repro.simulation.inhabitants import Inhabitant, generate_inhabitants
from repro.simulation.mobility import BuildingWorld
from repro.spatial.model import SpaceType
from repro.storage import records
from repro.storage.durable import StorageEngine
from repro.storage.wal import DEFAULT_SEGMENT_BYTES, list_segments, scan_segment
from repro.tippers.bms import TIPPERS

POPULATION = 200
POPULATION_SEED = 5
SERVICE = "svc-concierge"
#: Ticks run at set-up by the workloads whose world is then frozen.
SETUP_TICKS = 3
#: Simulated clock: 60 one-minute ticks from 13:30 each day, then the
#: next day.  In that hour lunch is over, every inhabitant who comes in
#: has arrived and none has left (simulation/inhabitants.py), so the
#: work per tick does not drift however many ticks a run reaches.
DAY_START_S = 13.5 * 3600.0
TICK_S = 60.0
TICKS_PER_DAY = 60
#: Capture keeps this much simulated history in memory, so its memory
#: use does not grow with the number of ticks a run reaches.
CAPTURE_HISTORY_S = 900.0
#: Query ops whose bus answers are checked against a direct oracle.
ORACLE_OPS = 1000
PERSONA_ORDER = ("fundamentalist", "pragmatist", "unconcerned")
CAMPUS_BUILDINGS = ("bldg-a", "bldg-b", "bldg-c", "bldg-d")
ROAMERS = 50
#: The campus overload wave: ``burst`` phantom arrivals on each of the
#: first ``high`` admission checks of every ``period``.  Tuned on this
#: workload to shed 10.7% and brown out 7.1% of calls.  The burst is
#: large and short so the queues saturate and drain almost
#: deterministically, and both shares repeat to 0.1% across seeds; a
#: gentler, longer wave leaves them a random walk that does not.
WAVE_PERIOD = 500
WAVE_HIGH = 60
WAVE_BURST = 12
BROWNOUT_MARKER = "brownout degraded response"


def sim_time(tick: int) -> float:
    """The simulated time of capture tick ``tick``."""
    day, minute = divmod(tick, TICKS_PER_DAY)
    return day * 86400.0 + DAY_START_S + minute * TICK_S


@dataclass
class Check:
    """One output check of a run."""

    name: str
    ok: bool
    detail: str = ""


def _equal(name: str, left: float, right: float) -> Check:
    return Check(name, left == right, "%g vs %g" % (left, right))


class Workload:
    """Defaults shared by every workload."""

    #: Exceptions that are refusals by the system, not failures.
    refusals: Tuple[type, ...] = ()
    #: Ops a run sends per second of warm-up and timed window on a
    #: machine at the reference speed, probes included; sets the op
    #: count at which the peak RSS is read.
    reference_rate: float

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: Ops whose output was wrong; found while observing or checking.
        self.failed = 0

    def weight(self, result: Any) -> int:
        """How many units of throughput one served op counts for."""
        return 1

    def observe(self, op: Any, result: Any) -> None:
        """Inspect one result (``None`` when the op was refused)."""

    def wal_bytes(self) -> float:
        return self.metrics.total("storage_wal_bytes_total")

    def describe(self) -> Dict[str, Any]:
        return {"population": POPULATION}

    def audit_check(self) -> Check:
        return _equal(
            "WAL audit appends == enforcement decisions",
            self.metrics.total("storage_wal_appends_total", {"type": records.AUDIT}),
            self.metrics.total("enforcement_decisions_total"),
        )


def _dbh(
    workdir: str, metrics: MetricsRegistry, seed: int
) -> Tuple[TIPPERS, StorageEngine, BuildingWorld, List[Inhabitant]]:
    """The full DBH: 120 rooms, 790 sensors, Policies 1 and 2, sharing."""
    storage = StorageEngine(workdir, metrics=metrics)
    spatial = build_dbh_spatial()
    tippers = TIPPERS(
        spatial, BUILDING_ID, owner_name="UCI", enforce_capture=True,
        metrics=metrics, storage=storage,
    )
    deploy_dbh_sensors(tippers)
    rooms = sorted(s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM))
    tippers.define_policy(catalog.policy_1_comfort(rooms))
    tippers.define_policy(catalog.policy_2_emergency_location(BUILDING_ID))
    tippers.define_policy(catalog.policy_service_sharing(BUILDING_ID))
    inhabitants = generate_inhabitants(spatial, POPULATION, seed=POPULATION_SEED)
    for person in inhabitants:
        tippers.add_user(person.profile)
    return tippers, storage, BuildingWorld(spatial, inhabitants, seed=seed), inhabitants


class Capture(Workload):
    """Paper steps 2-3: one ``tick`` over the DBH while people move."""

    reference_rate = 10.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.tippers, self.storage, self.world, _ = _dbh(workdir, self.metrics, seed)
        self.ticks = 0

    def next_op(self) -> float:
        now = sim_time(self.ticks)
        self.ticks += 1
        self.world.step(now)
        return now

    def call(self, now: float) -> Any:
        return self.tippers.tick(now, self.world)

    def weight(self, stats: Any) -> int:
        return stats.sampled

    def observe(self, now: float, stats: Any) -> None:
        datastore = self.tippers.datastore
        datastore.sweep(
            now, dict.fromkeys(datastore.stream_names(), CAPTURE_HISTORY_S)
        )

    def checks(self, workdir: str) -> List[Check]:
        stats = self.tippers.sensor_manager.stats
        dropped = stats.dropped_capture + stats.dropped_storage + stats.write_failures
        return [
            _equal("stored + dropped == sampled", stats.stored + dropped, stats.sampled),
            _equal(
                "WAL obs appends == stored",
                self.metrics.total("storage_wal_appends_total", {"type": records.OBS}),
                stats.stored,
            ),
            self.audit_check(),
        ]

    def close(self) -> None:
        self.storage.close()


class Query(Workload):
    """Paper steps 9-10: a service's bus call to TIPPERS on the DBH."""

    reference_rate = 7500.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.seed = seed
        self.tippers, self.storage, self.world, inhabitants = _dbh(
            workdir, self.metrics, seed
        )
        for tick in range(SETUP_TICKS):
            now = sim_time(tick)
            self.world.step(now)
            self.tippers.tick(now, self.world)
        self.now = sim_time(SETUP_TICKS - 1) + TICK_S / 2
        spatial = self.tippers.spatial
        self.subjects = [person.user_id for person in inhabitants]
        self.rooms = sorted(s.space_id for s in spatial.spaces_of_type(SpaceType.ROOM))
        self.admission = AdmissionController(
            seed=seed, principal_capacity=64.0, principal_refill_per_step=8.0,
            metrics=self.metrics,
        )
        self.bus = MessageBus(
            metrics=self.metrics, tracer=NullTracer(),
            breakers=BreakerBoard(), admission=self.admission,
        )
        self.bus.register("tippers", self.tippers)
        registry = IoTResourceRegistry("irr-dbh", spatial)
        self.bus.register("irr-dbh", registry)
        policies = self.tippers.policy_manager
        registry.publish_resource(
            "dbh-building-policies", BUILDING_ID,
            policies.compile_policy_document(),
            settings=policies.settings_space.to_document(),
        )
        registry.publish_service(
            "dbh-concierge", BUILDING_ID,
            SmartConcierge(self.tippers, SERVICE).policy_document(),
        )
        self.rng = random.Random(seed)
        self.answers: List[Tuple[Tuple[str, Dict[str, Any]], Dict[str, Any]]] = []

    def payload(self, key: str, value: str) -> Dict[str, Any]:
        return {
            "requester_id": SERVICE,
            "requester_kind": "building_service",
            key: value,
            "now": self.now,
        }

    def ask(self, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self.bus.call(
            "tippers", method, payload, deadline=Deadline(1.0), principal=SERVICE
        )

    def next_op(self) -> Tuple[str, Dict[str, Any]]:
        if self.rng.random() < 0.8:
            return "locate_user", self.payload("subject_id", self.rng.choice(self.subjects))
        return "room_occupancy", self.payload("space_id", self.rng.choice(self.rooms))

    def call(self, op: Tuple[str, Dict[str, Any]]) -> Dict[str, Any]:
        return self.ask(*op)

    def observe(self, op: Any, answer: Any) -> None:
        if len(self.answers) < ORACLE_OPS:
            self.answers.append((op, answer))

    def bus_checks(self) -> List[Check]:
        ledger = self.admission.ledger
        return [
            self.audit_check(),
            _equal("admission shed nothing", ledger.shed, 0),
            _equal("admission browned out nothing", ledger.brownouts, 0),
            _equal("breakers rejected nothing", self.bus.stats.rejected, 0),
        ]

    def checks(self, workdir: str) -> List[Check]:
        oracle = Query(self.seed, workdir)
        try:
            mismatched = sum(
                oracle.tippers.handle(method, payload) != answer
                for (method, payload), answer in self.answers
            )
        finally:
            oracle.close()
        self.failed += mismatched
        return self.bus_checks() + [
            Check(
                "bus answers == direct TIPPERS.handle answers",
                mismatched == 0,
                "%d of the first %d ops differ" % (mismatched, len(self.answers)),
            )
        ]

    def close(self) -> None:
        self.storage.close()


class Onboard(Query):
    """Paper steps 4-8 then 9: one occupant's IoTA session."""

    QUERIES_PER_SESSION = 4
    reference_rate = 620.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.models = [
            PreferenceModel().fit(generate_decisions(PERSONAS[name], 150, seed=7))
            for name in PERSONA_ORDER
        ]
        self.order = list(self.subjects)
        self.rng.shuffle(self.order)
        self.sessions = 0
        #: Preference count after each full pass over the inhabitants.
        self.preference_counts: List[int] = []

    def next_op(self) -> Tuple[IoTAssistant, str]:
        user_id = self.order[self.sessions % POPULATION]
        iota = IoTAssistant(
            user_id, self.bus, model=self.models[self.sessions % len(self.models)],
            registry_endpoints=["irr-dbh"], metrics=self.metrics,
        )
        self.sessions += 1
        return iota, self.world.location_of(user_id) or BUILDING_ID

    def call(self, op: Tuple[IoTAssistant, str]) -> Tuple[Any, List[Dict[str, Any]]]:
        iota, space_id = op
        found = iota.discover(space_id, self.now)
        iota.configure_building_settings(self.now)
        payload = self.payload("subject_id", iota.user_id)
        answers = [
            self.ask("locate_user", payload) for _ in range(self.QUERIES_PER_SESSION)
        ]
        return found, answers

    def observe(self, op: Any, result: Any) -> None:
        found, _ = result
        if found.registry_ids != ["irr-dbh"] or not found.settings:
            self.failed += 1
        if self.sessions % POPULATION == 0:
            self.preference_counts.append(self.tippers.preference_manager.count())

    def checks(self, workdir: str) -> List[Check]:
        counts = self.preference_counts
        return self.bus_checks() + [
            Check(
                "preference count stationary across passes",
                len(set(counts)) <= 1,
                "%d passes, counts %s" % (len(counts), sorted(set(counts))),
            ),
            Check("every discovery reached irr-dbh", self.failed == 0,
                  "%d sessions missed it" % self.failed),
        ]


class PhantomWave:
    """A seeded square wave of phantom arrivals on admission checks."""

    def __init__(self, seed: int) -> None:
        self.step = random.Random(seed).randrange(WAVE_PERIOD)

    def __call__(self, target: str, method: str) -> int:
        self.step += 1
        return WAVE_BURST if self.step % WAVE_PERIOD < WAVE_HIGH else 0


def _audit_records(directory: str) -> Iterator[Dict[str, Any]]:
    """Every audit record in the WAL under ``directory``."""
    for path in list_segments(directory):
        for frame in scan_segment(path).frames:
            record_type, data = records.decode_record(frame.payload)
            if record_type == records.AUDIT:
                yield data


class CampusRush(Workload):
    """One routed ``locate_user`` on a 4-building campus under overload."""

    refusals = (AdmissionShedError,)
    reference_rate = 5800.0

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()
        self.admission = AdmissionController(
            seed=seed, queue_capacity=64, drain_per_step=1.0, metrics=self.metrics
        )
        # The storage engine's default segment size, as on the DBH: the
        # campus's 8 KiB default creates a segment file every ~30
        # appends, which puts file-system calls in the latency tail.
        self.campus = Campus(
            CAMPUS_BUILDINGS, seed=seed, storage_root=workdir,
            segment_bytes=DEFAULT_SEGMENT_BYTES, metrics=self.metrics,
            tracer=NullTracer(), admission=self.admission,
        )
        self.router = self.campus.router
        self.subjects = ["campus-user-%04d" % n for n in range(1, POPULATION + 1)]
        homed: Dict[str, List[str]] = {b: [] for b in CAMPUS_BUILDINGS}
        for user_id in self.subjects:
            homed[self.router.home_building(user_id)].append(user_id)
        people: Dict[str, Inhabitant] = {}
        worlds: Dict[str, BuildingWorld] = {}
        for building_id, user_ids in homed.items():
            spatial = self.campus.shard(building_id).spatial
            residents = generate_inhabitants(
                spatial, len(user_ids), seed=POPULATION_SEED,
                building_id=building_id, user_ids=user_ids,
            )
            for person in residents:
                self.campus.add_resident(building_id, person.profile)
                people[person.user_id] = person
            worlds[building_id] = BuildingWorld(spatial, residents, seed=seed)
        # Who roams where is part of the fixed population.
        placement = random.Random(POPULATION_SEED)
        #: roamer -> the building they are visiting.
        self.visiting: Dict[str, str] = {}
        for user_id in sorted(placement.sample(self.subjects, ROAMERS)):
            home = self.campus.home_of[user_id]
            visited = placement.choice([b for b in CAMPUS_BUILDINGS if b != home])
            self.visiting[user_id] = visited
            self.campus.shard(visited).tippers.register_roaming_user(
                people[user_id].profile, home
            )
            worlds[visited].add_visitor(people[user_id])
        for tick in range(SETUP_TICKS):
            now = sim_time(tick)
            for world in worlds.values():
                world.step(now)
            for user_id, visited in self.visiting.items():
                worlds[self.campus.home_of[user_id]].teleport(user_id, None)
                worlds[visited].teleport(user_id, worlds[visited].lunch_room)
            for building_id, world in worlds.items():
                self.campus.shard(building_id).tippers.tick(now, world)
        self.now = sim_time(SETUP_TICKS - 1) + TICK_S / 2
        self.rng = random.Random(seed)
        self.admission.install_fault_plane(PhantomWave(seed))
        self.visited_answers = 0
        self.brownout_answers = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "population": POPULATION,
            "buildings": len(CAMPUS_BUILDINGS),
            "roamers": ROAMERS,
            "wave_period": WAVE_PERIOD,
            "wave_high": WAVE_HIGH,
            "wave_burst": WAVE_BURST,
            "queue_capacity": self.admission.queue_capacity,
            "drain_per_step": self.admission.drain_per_step,
        }

    def next_op(self) -> Tuple[Optional[str], str, Dict[str, Any]]:
        subject = self.rng.choice(self.subjects)
        payload = {
            "requester_id": SERVICE,
            "requester_kind": "building_service",
            "subject_id": subject,
            "now": self.now,
        }
        visited = self.visiting.get(subject)
        if visited is not None and self.rng.random() < 0.5:
            return visited, subject, payload
        return None, subject, payload

    def call(self, op: Tuple[Optional[str], str, Dict[str, Any]]) -> Dict[str, Any]:
        visited, subject, payload = op
        if visited is None:
            return self.router.call_home(subject, "locate_user", payload)
        return self.router.call_building(visited, "locate_user", payload, principal=subject)

    def observe(self, op: Any, answer: Optional[Dict[str, Any]]) -> None:
        if answer is None:
            return
        visited, subject, _ = op
        reasons = answer["reasons"]
        if any(BROWNOUT_MARKER in reason for reason in reasons):
            self.brownout_answers += 1
        if visited is not None:
            self.visited_answers += 1
            if "roaming:%s" % self.campus.home_of[subject] not in reasons:
                self.failed += 1

    def checks(self, workdir: str) -> List[Check]:
        ledger = self.admission.ledger
        audited = sum(
            any(BROWNOUT_MARKER in reason for reason in record["reasons"])
            for shard in self.campus.shards()
            for record in _audit_records(shard.storage.directory)
        )
        return [
            self.audit_check(),
            Check(
                "every visited-shard answer carries roaming:<home>",
                self.failed == 0,
                "%d of %d unmarked" % (self.failed, self.visited_answers),
            ),
            _equal("browned-out answers == brownout tickets",
                   self.brownout_answers, ledger.brownouts),
            _equal("brownout-marked WAL audit records == brownout tickets",
                   audited, ledger.brownouts),
            _equal("CRITICAL sheds", ledger.shed_by_class.get(Priority.CRITICAL.value, 0), 0),
            _equal("checked == admitted + shed",
                   ledger.checked, ledger.admitted + ledger.shed),
        ]

    def close(self) -> None:
        self.campus.close()


WORKLOADS = {
    "query": Query,
    "capture": Capture,
    "onboard": Onboard,
    "campus_rush": CampusRush,
}
