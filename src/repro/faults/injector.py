"""The fault injector: installs a plan's faults onto live components.

The injector owns one global *logical step* counter, advanced once per
intercepted operation (bus transport attempt, datastore write, sensor
sample, policy fetch).  Each interception consults the plan at the
current step and, when a spec fires, records a :class:`FaultEvent` and
applies the fault *inside the component's own accounting* -- a dropped
bus message goes through the bus's own attempt, retry and drop
counters (fault planes are the bus's only source of loss), a failed
write raises the same :class:`~repro.errors.StorageError` a real
backend would.

Call sites never change: components expose ``install_fault_plane`` /
``remove_fault_plane`` hooks and the injector plugs into them.  The
only wrap-style hook is the policy store's ``candidate_policies``,
replaced by an instance attribute so the enforcement engine's
fail-closed path can be exercised without the core layer knowing about
faults.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import FaultError, StorageError
from repro.faults.plan import (
    ADMISSION_KINDS,
    BUS_KINDS,
    DATASTORE_KINDS,
    MIGRATION_KINDS,
    POLICY_KINDS,
    SENSOR_KINDS,
    WAL_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultTrace,
)
from repro.net.bus import BusFault, MessageBus


class FaultInjector:
    """Applies a :class:`~repro.faults.plan.FaultPlan` to components."""

    def __init__(self, plan: FaultPlan, trace: Optional[FaultTrace] = None) -> None:
        self.plan = plan
        self.trace = trace if trace is not None else FaultTrace()
        self._step = 0
        self._buses: List[MessageBus] = []
        self._datastores: List[Any] = []
        self._subsystems: List[Any] = []
        self._policy_stores: List[Tuple[Any, Any]] = []
        self._storage_engines: List[Any] = []
        self._admission_controllers: List[Any] = []
        self._rebalancers: List[Any] = []

    @property
    def step(self) -> int:
        """The next logical step number (operations intercepted so far)."""
        return self._step

    def _advance(self) -> int:
        step = self._step
        self._step += 1
        return step

    # ------------------------------------------------------------------
    # Site planes
    # ------------------------------------------------------------------
    def _bus_plane(self, target: str, method: str) -> Optional[BusFault]:
        """Transport plane: one step per bus attempt."""
        step = self._advance()
        fired = self.plan.matching(step, BUS_KINDS, (target, method))
        if not fired:
            return None
        fault = BusFault()
        for spec in fired:
            detail = "method=%s" % method
            if spec.kind is FaultKind.DROP:
                fault = fault.merge(BusFault(drop="injected by plan %r" % self.plan.name))
            elif spec.kind is FaultKind.CRASH:
                fault = fault.merge(BusFault(offline="crashed by plan %r" % self.plan.name))
            elif spec.kind is FaultKind.CORRUPT:
                fault = fault.merge(BusFault(corrupt=True))
            elif spec.kind is FaultKind.LATENCY:
                fault = fault.merge(BusFault(latency_s=spec.latency_s))
                detail += " latency_s=%.3f" % spec.latency_s
            else:  # pragma: no cover - BUS_KINDS filters the rest out
                raise FaultError("unexpected bus fault kind %r" % spec.kind)
            self.trace.record(step, "bus", spec.kind, target, detail)
        return fault

    def _datastore_plane(self, op: str, detail: str) -> bool:
        """Storage plane: one step per write; True fails the write."""
        step = self._advance()
        fired = self.plan.matching(step, DATASTORE_KINDS, (op, detail))
        for spec in fired:
            self.trace.record(step, "datastore", spec.kind, op, "detail=%s" % detail)
        return bool(fired)

    def _wal_plane(self, op: str, record_type: str) -> Optional[str]:
        """Durability plane: one step per WAL append.

        Returning a kind value makes the log crash the simulated
        process (see :data:`repro.storage.wal.WalPlane`); the WAL
        decides whether the frame lands partially (``torn_write``) or
        completely (``crash_mid_append``).
        """
        step = self._advance()
        fired = self.plan.matching(step, WAL_KINDS, (op, record_type))
        if not fired:
            return None
        spec = fired[0]
        self.trace.record(step, "wal", spec.kind, record_type or op)
        return spec.kind.value

    def _admission_plane(self, target: str, method: str) -> Optional[int]:
        """Overload plane: one step per admission check.

        Returns the number of phantom arrivals to inject into the
        target's topic queue (the sum of fired specs' magnitudes), or
        ``None`` when no burst fires.
        """
        step = self._advance()
        fired = self.plan.matching(step, ADMISSION_KINDS, (target, method))
        if not fired:
            return None
        burst = 0
        for spec in fired:
            burst += spec.magnitude
            self.trace.record(
                step,
                "admission",
                spec.kind,
                target,
                "method=%s magnitude=%d" % (method, spec.magnitude),
            )
        return burst

    def _migration_plane(self, op: str, target: str) -> Tuple[str, ...]:
        """Rebalance plane: one step per migration step boundary.

        ``op`` is the migration step about to run (``copy``, ``import``,
        ``finalize``) and ``target`` the migrating user.  Returns the
        fired kind values; the coordinator turns ``crash_mid_migration``
        into a :class:`~repro.errors.SimulatedCrash` of the shard
        executing the step and ``cutover_partition`` into a skipped,
        retried-later step (the user stays mid-migration, fail-closed).
        """
        step = self._advance()
        fired = self.plan.matching(step, MIGRATION_KINDS, (op, target))
        for spec in fired:
            self.trace.record(
                step, "rebalance", spec.kind, op, "user=%s" % target
            )
        return tuple(spec.kind.value for spec in fired)

    def _sensor_plane(self, sensor: Any) -> bool:
        """Sensing plane: one step per sensor sample; True stalls it."""
        step = self._advance()
        fired = self.plan.matching(
            step, SENSOR_KINDS, (sensor.sensor_id, sensor.sensor_type)
        )
        for spec in fired:
            self.trace.record(step, "sensors", spec.kind, sensor.sensor_id)
        return bool(fired)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install_bus(self, bus: MessageBus) -> None:
        bus.install_fault_plane(self._bus_plane)
        self._buses.append(bus)

    def install_datastore(self, datastore: Any) -> None:
        datastore.install_fault_plane(self._datastore_plane)
        self._datastores.append(datastore)

    def install_subsystem(self, subsystem: Any) -> None:
        subsystem.install_fault_plane(self._sensor_plane)
        self._subsystems.append(subsystem)

    def install_sensor_manager(self, manager: Any) -> None:
        """Install on every subsystem the manager currently owns.

        Subsystems created by later deployments are not covered; install
        after the building's sensors are deployed.
        """
        for subsystem in manager.subsystems():
            self.install_subsystem(subsystem)

    def install_admission(self, controller: Any) -> None:
        """Route admission checks through the plan (overload bursts)."""
        controller.install_fault_plane(self._admission_plane)
        self._admission_controllers.append(controller)

    def install_storage_engine(self, engine: Any) -> None:
        """Route WAL appends through the plan (torn writes, crashes)."""
        engine.install_fault_plane(self._wal_plane)
        self._storage_engines.append(engine)

    def install_rebalancer(self, coordinator: Any) -> None:
        """Route migration step boundaries through the plan."""
        coordinator.install_fault_plane(self._migration_plane)
        self._rebalancers.append(coordinator)

    def install_policy_store(self, store: Any) -> None:
        """Make the store's policy fetches fault per the plan.

        ``candidate_policies`` is shadowed with an instance attribute
        that raises :class:`~repro.errors.StorageError` when a
        POLICY_FETCH_FAIL spec fires -- exactly what the enforcement
        engine's fail-closed path must absorb.
        """
        original = store.candidate_policies

        def faulted_candidate_policies(request: Any) -> Any:
            step = self._advance()
            fired = self.plan.matching(step, POLICY_KINDS, ("policy_store",))
            if fired:
                self.trace.record(
                    step, "policy", fired[0].kind, "policy_store"
                )
                raise StorageError(
                    "injected policy fetch failure (plan %r, step %d)"
                    % (self.plan.name, step)
                )
            return original(request)

        store.candidate_policies = faulted_candidate_policies
        self._policy_stores.append((store, original))

    def uninstall(self) -> None:
        """Detach from every component and restore wrapped methods."""
        for bus in self._buses:
            bus.remove_fault_plane(self._bus_plane)
        for datastore in self._datastores:
            datastore.remove_fault_plane(self._datastore_plane)
        for subsystem in self._subsystems:
            subsystem.remove_fault_plane(self._sensor_plane)
        for store, original in self._policy_stores:
            store.candidate_policies = original
        for engine in self._storage_engines:
            engine.remove_fault_plane(self._wal_plane)
        for controller in self._admission_controllers:
            controller.remove_fault_plane(self._admission_plane)
        for coordinator in self._rebalancers:
            coordinator.remove_fault_plane(self._migration_plane)
        del self._rebalancers[:]
        del self._buses[:]
        del self._datastores[:]
        del self._subsystems[:]
        del self._policy_stores[:]
        del self._storage_engines[:]
        del self._admission_controllers[:]


def single_spec_plan(spec: FaultSpec, seed: int = 0, name: str = "single") -> FaultPlan:
    """Convenience used heavily by tests: a plan with one spec."""
    return FaultPlan([spec], seed=seed, name=name)
