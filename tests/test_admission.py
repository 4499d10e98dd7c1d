"""Unit tests for the admission controller and its building blocks."""

import math

import pytest

from repro.errors import AdmissionError, AdmissionShedError
from repro.net.admission import (
    BROWNOUT_LATTICE,
    DEFAULT_METHOD_PRIORITIES,
    AdmissionController,
    BrownoutPolicy,
    LoadLevel,
    Priority,
    TokenBucket,
    TopicQueue,
)
from repro.net.bus import MessageBus
from repro.obs.metrics import MetricsRegistry


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(AdmissionError):
            TokenBucket(capacity=0, refill_per_step=1.0)
        with pytest.raises(AdmissionError):
            TokenBucket(capacity=1.0, refill_per_step=-0.1)

    def test_starts_full_and_spends_down(self):
        bucket = TokenBucket(capacity=2.0, refill_per_step=0.5)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_is_stepwise_and_capped(self):
        bucket = TokenBucket(capacity=2.0, refill_per_step=0.5)
        bucket.try_take(2.0)
        bucket.step()
        assert not bucket.try_take()  # 0.5 < 1.0
        bucket.step()
        assert bucket.try_take()  # 1.0 available
        for _ in range(100):
            bucket.step()
        assert bucket.tokens == pytest.approx(2.0)  # capped at capacity


class TestTopicQueue:
    def test_watermark_geometry_validation(self):
        with pytest.raises(AdmissionError):
            TopicQueue(capacity=0)
        with pytest.raises(AdmissionError):
            TopicQueue(high_watermark=0.0)
        with pytest.raises(AdmissionError):
            TopicQueue(high_watermark=0.8, shed_watermark=0.5)
        with pytest.raises(AdmissionError):
            TopicQueue(drain_per_step=0.0)

    def test_levels_track_the_watermarks(self):
        queue = TopicQueue(capacity=10, high_watermark=0.5, shed_watermark=0.8)
        assert queue.level() is LoadLevel.NOMINAL
        queue.arrive(5.0)
        assert queue.level() is LoadLevel.BROWNOUT
        queue.arrive(3.0)
        assert queue.level() is LoadLevel.OVERLOAD

    def test_depth_is_bounded_and_drains_to_zero(self):
        queue = TopicQueue(capacity=4, drain_per_step=1.0)
        queue.arrive(100.0)
        assert queue.depth == 4.0
        assert queue.load == 1.0
        for _ in range(4):
            queue.drain()
        assert queue.depth == 0.0
        queue.drain()  # never negative
        assert queue.depth == 0.0

    def test_negative_arrivals_rejected(self):
        with pytest.raises(AdmissionError):
            TopicQueue().arrive(-1.0)


class TestBrownoutPolicy:
    def test_max_levels_bounded_by_lattice(self):
        with pytest.raises(AdmissionError):
            BrownoutPolicy(max_levels=0)
        with pytest.raises(AdmissionError):
            BrownoutPolicy(max_levels=len(BROWNOUT_LATTICE))

    def test_level_ramps_between_watermarks(self):
        policy = BrownoutPolicy(max_levels=2)
        assert policy.level_for(0.4, 0.5, 0.8) == 0
        assert policy.level_for(0.5, 0.5, 0.8) == 1
        assert policy.level_for(0.79, 0.5, 0.8) == 2
        assert policy.level_for(0.8, 0.5, 0.8) == 2
        assert policy.level_for(1.0, 0.5, 0.8) == 2

    def test_coarsen_walks_the_lattice_and_floors(self):
        assert BrownoutPolicy.coarsen("precise", 1) == "coarse"
        assert BrownoutPolicy.coarsen("precise", 2) == "building"
        assert BrownoutPolicy.coarsen("precise", 99) == "building"
        assert BrownoutPolicy.coarsen("coarse", 1) == "building"
        # Already coarser than the floor: pass through untouched.
        assert BrownoutPolicy.coarsen("aggregate", 2) == "aggregate"
        assert BrownoutPolicy.coarsen("none", 1) == "none"
        assert BrownoutPolicy.coarsen("precise", 0) == "precise"


class TestClassification:
    def test_privacy_calls_are_critical(self):
        controller = AdmissionController(metrics=MetricsRegistry())
        for method in ("get_policy_document", "submit_preference",
                       "dsar_report", "dsar_erase"):
            assert controller.classify("tippers", method) is Priority.CRITICAL

    def test_unknown_methods_default_to_normal(self):
        controller = AdmissionController(metrics=MetricsRegistry())
        assert controller.classify("x", "frobnicate") is Priority.NORMAL

    def test_custom_priorities_override(self):
        controller = AdmissionController(
            metrics=MetricsRegistry(),
            method_priorities={"frobnicate": Priority.DEFERRABLE},
        )
        assert controller.classify("x", "frobnicate") is Priority.DEFERRABLE
        # Defaults survive alongside the override.
        assert controller.classify("x", "discover") is Priority.DEFERRABLE


def saturate(controller, target="tippers", method="locate_user", calls=64):
    """Drive the target's queue to full depth with admitted traffic."""
    burst = [lambda t, m: 8]
    controller.install_fault_plane(burst[0])
    for _ in range(calls):
        controller.admit(target, method)
    controller.remove_fault_plane(burst[0])


class TestAdmitVerdicts:
    def make(self, **kwargs):
        kwargs.setdefault("metrics", MetricsRegistry())
        kwargs.setdefault("queue_capacity", 10)
        return AdmissionController(**kwargs)

    def test_nominal_load_admits_everything_unbrowned(self):
        controller = self.make()
        for method in ("get_policy_document", "locate_user", "discover"):
            ticket = controller.admit("tippers", method)
            assert ticket.admitted
            assert ticket.brownout_level == 0

    def test_critical_is_never_shed_even_saturated(self):
        controller = self.make()
        saturate(controller)
        assert controller.queue("tippers").level() is LoadLevel.OVERLOAD
        for _ in range(50):
            ticket = controller.admit("tippers", "dsar_erase")
            assert ticket.admitted, ticket.reason
        assert controller.ledger.shed_by_class.get("critical", 0) == 0

    def test_normal_sheds_past_the_hard_watermark(self):
        controller = self.make()
        saturate(controller)
        ticket = controller.admit("tippers", "locate_user")
        assert not ticket.admitted
        assert "shed watermark" in ticket.reason

    def test_normal_browns_out_between_watermarks(self):
        controller = self.make(queue_capacity=100, drain_per_step=1.0)
        queue = controller.queue("tippers")
        queue.arrive(60.0)  # 0.6 after the admit's drain+arrive: brownout band
        ticket = controller.admit("tippers", "locate_user")
        assert ticket.admitted
        assert ticket.browned_out
        assert 1 <= ticket.brownout_level <= 2

    def test_deferrable_always_sheds_past_watermark(self):
        controller = self.make()
        saturate(controller)
        ticket = controller.admit("irr-1", "discover")
        assert ticket.admitted  # separate target, separate queue
        saturate(controller, target="irr-1", method="discover")
        ticket = controller.admit("irr-1", "discover")
        assert not ticket.admitted

    def test_principal_budget_sheds_normal_but_not_critical(self):
        controller = self.make(
            principal_capacity=2.0, principal_refill_per_step=0.0
        )
        assert controller.admit("t", "locate_user", "greedy").admitted
        assert controller.admit("t", "locate_user", "greedy").admitted
        over = controller.admit("t", "locate_user", "greedy")
        assert not over.admitted
        assert "over budget" in over.reason
        # CRITICAL ignores the budget; other principals are unaffected.
        assert controller.admit("t", "dsar_report", "greedy").admitted
        assert controller.admit("t", "locate_user", "patient").admitted

    def test_ledger_identity_and_shed_rates(self):
        controller = self.make()
        saturate(controller)
        for _ in range(10):
            controller.admit("tippers", "locate_user")
            controller.admit("tippers", "dsar_report")
        ledger = controller.ledger
        assert ledger.checked == ledger.admitted + ledger.shed
        assert ledger.shed_rate(Priority.CRITICAL) == 0.0
        assert ledger.shed_rate(Priority.NORMAL) > 0.0
        assert 0.0 < ledger.shed_rate() < 1.0

    def test_same_seed_runs_are_identical(self):
        def run(seed):
            controller = AdmissionController(
                seed=seed, queue_capacity=100, metrics=MetricsRegistry()
            )
            # Hold the load inside the probabilistic brownout band: the
            # per-admit drain cancels the arrival, so deferrable sheds
            # are pure draws from the controller's seeded RNG.
            controller.queue("tippers").arrive(65.0)
            verdicts = []
            for index in range(80):
                method = ("discover", "locate_user")[index % 2]
                ticket = controller.admit("tippers", method)
                verdicts.append((ticket.admitted, ticket.brownout_level))
            return verdicts, controller.loads()

        first = run(7)
        assert first == run(7)
        assert first != run(8)
        sheds = [entry for entry in first[0] if not entry[0]]
        assert sheds, "the brownout band must shed some deferrables"

    def test_loads_and_levels_are_sorted_introspection(self):
        controller = self.make()
        controller.admit("zeta", "locate_user")
        controller.admit("alpha", "locate_user")
        assert list(controller.loads()) == ["alpha", "zeta"]
        assert set(controller.levels().values()) <= {
            "nominal", "brownout", "overload"
        }


class TestLazySteps:
    """Each check's work is bounded by counts, not by the principal count."""

    def count_updates(self, monkeypatch):
        calls = {"step": 0, "drain": 0}
        step, drain = TokenBucket.step, TopicQueue.drain

        def counting_step(bucket):
            calls["step"] += 1
            step(bucket)

        def counting_drain(queue):
            calls["drain"] += 1
            drain(queue)

        monkeypatch.setattr(TokenBucket, "step", counting_step)
        monkeypatch.setattr(TopicQueue, "drain", counting_drain)
        return calls

    def test_one_check_does_not_step_every_principal(self, monkeypatch):
        controller = AdmissionController(metrics=MetricsRegistry())
        targets = ("tippers", "irr-1")
        for target in targets:
            controller.queue(target).arrive(30.0)
        for index in range(1000):
            controller.bucket("p%d" % index).try_take(5.0)
        calls = self.count_updates(monkeypatch)
        controller.admit("tippers", "locate_user", "p0")
        bound = math.ceil(
            controller.principal_capacity / controller.principal_refill_per_step
        ) + len(targets)
        assert calls["step"] + calls["drain"] <= bound
        assert calls == {"step": 1, "drain": 1}

    def test_a_rarely_seen_principal_catches_up_in_bounded_steps(
        self, monkeypatch
    ):
        controller = AdmissionController(metrics=MetricsRegistry())
        controller.bucket("rare").try_take(8.0)
        for index in range(1000):
            controller.admit("tippers", "dsar_report", "p%d" % index)
        calls = self.count_updates(monkeypatch)
        assert controller.bucket("rare").tokens == 8.0
        # 16 half-token refills to full, then one step that changes nothing.
        assert calls["step"] == math.ceil(8.0 / 0.5) + 1

    def test_negative_plane_burst_is_rejected_before_the_check_counts(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(metrics=metrics, queue_capacity=10)
        controller.queue("tippers").arrive(5.0)

        def plane(target, method):
            return -3

        controller.install_fault_plane(plane)
        with pytest.raises(AdmissionError):
            controller.admit("tippers", "locate_user")
        ledger = controller.ledger
        assert (ledger.checked, ledger.admitted, ledger.shed) == (0, 0, 0)
        assert metrics.total("admission_checked_total") == 0
        assert controller.queue("tippers").depth == 5.0  # no step taken
        controller.remove_fault_plane(plane)
        assert controller.admit("tippers", "locate_user").admitted
        assert ledger.checked == ledger.admitted + ledger.shed == 1


class TestBusIntegration:
    def make_bus(self, **admission_kwargs):
        metrics = MetricsRegistry()
        admission_kwargs.setdefault("queue_capacity", 10)
        controller = AdmissionController(metrics=metrics, **admission_kwargs)
        bus = MessageBus(metrics=metrics, admission=controller)
        bus.register_handler(
            "tippers", lambda method, payload: {"echo": dict(payload)}
        )
        return bus, controller, metrics

    def test_shed_calls_never_become_logical_calls(self):
        bus, controller, metrics = self.make_bus()
        saturate(controller, target="tippers")
        with pytest.raises(AdmissionShedError):
            bus.call("tippers", "locate_user", {})
        assert bus.stats.shed == 1
        assert bus.stats.logical_calls == 0
        assert bus.stats.calls == bus.stats.logical_calls + bus.stats.retries
        assert metrics.total(
            "bus_admission_shed_total", {"target": "tippers", "class": "normal"}
        ) == 1

    def test_browned_out_call_carries_the_level_in_payload(self):
        bus, controller, _ = self.make_bus(queue_capacity=100)
        controller.queue("tippers").arrive(60.0)
        result = bus.call("tippers", "locate_user", {"user": "mary"})
        assert result["echo"]["brownout_level"] >= 1
        assert result["echo"]["user"] == "mary"

    def test_nominal_call_payload_is_untouched(self):
        bus, _, _ = self.make_bus()
        result = bus.call("tippers", "locate_user", {"user": "mary"})
        assert "brownout_level" not in result["echo"]

    def test_critical_calls_flow_during_overload(self):
        bus, controller, _ = self.make_bus()
        saturate(controller, target="tippers")
        assert bus.call("tippers", "dsar_report", {})["echo"] == {}
