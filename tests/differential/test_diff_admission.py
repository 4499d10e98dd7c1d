"""Differential tests: lazy admission steps vs the eager reference.

:class:`~repro.net.admission.AdmissionController` advances a step
counter per check and brings each queue and bucket up to that step only
when it reads it.  :class:`EagerController` below is the reference: a
copy of the eager ``admit`` that drains every queue and refills every
bucket on every check.  Both run the same generated op sequence -- plane
bursts, direct ``queue(t).arrive(x)`` calls, mid-sequence ``bucket(p)``
/ ``loads()`` / ``levels()`` reads -- and after every op their tickets,
ledgers, queue depths, bucket tokens (compared with ``==``) and rendered
metrics must be equal.

The after-op comparison reads the lazy controller's queues and buckets
through a shadow copy, so it never syncs them itself and the long
catch-ups a rarely seen principal triggers stay exercised.

The example counts come from the profiles in ``conftest.py``.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import example, given, strategies as st

from repro.net.admission import (
    DEFAULT_METHOD_PRIORITIES,
    AdmissionController,
    AdmissionTicket,
    Priority,
    TokenBucket,
    TopicQueue,
)
from repro.obs.metrics import MetricsRegistry


class EagerController(AdmissionController):
    """The reference model: every check steps every queue and bucket."""

    def queue(self, target: str) -> TopicQueue:
        queue = self._queues.get(target)
        if queue is None:
            queue = self._queues[target] = TopicQueue(
                capacity=self.queue_capacity,
                drain_per_step=self.drain_per_step,
            )
        return queue

    def bucket(self, principal: str) -> TokenBucket:
        bucket = self._buckets.get(principal)
        if bucket is None:
            bucket = self._buckets[principal] = TokenBucket(
                capacity=self.principal_capacity,
                refill_per_step=self.principal_refill_per_step,
            )
        return bucket

    def admit(
        self, target: str, method: str, principal: Optional[str] = None
    ) -> AdmissionTicket:
        self.ledger.checked += 1
        for queue in self._queues.values():
            queue.drain()
        for bucket in self._buckets.values():
            bucket.step()
        queue = self.queue(target)
        for plane in self._planes:
            burst = plane(target, method)
            if burst:
                queue.arrive(burst)
                self.ledger.injected_arrivals += burst
        priority = DEFAULT_METHOD_PRIORITIES.get(method, Priority.NORMAL)
        queue.arrive(1.0)
        load = queue.load
        ticket = self._verdict(target, method, principal, priority, load)
        self._note(target, ticket)
        return ticket


METHODS = ("dsar_report", "locate_user", "discover")  # one per class

Op = Tuple[Any, ...]


def _state(controller: AdmissionController) -> Dict[str, Any]:
    """Everything observable, read through a shadow so nothing syncs."""
    shadow = copy.copy(controller)
    shadow._queues = {t: copy.copy(q) for t, q in controller._queues.items()}
    shadow._buckets = {p: copy.copy(b) for p, b in controller._buckets.items()}
    return {
        "ledger": copy.deepcopy(controller.ledger),
        "depths": {t: shadow.queue(t).depth for t in sorted(shadow._queues)},
        "tokens": {p: shadow.bucket(p).tokens for p in sorted(shadow._buckets)},
        "loads": shadow.loads(),
        "levels": shadow.levels(),
        "metrics": controller.metrics.render(),
    }


def _build(cls: type, burst: List[int], **params: Any) -> AdmissionController:
    controller = cls(seed=5, metrics=MetricsRegistry(), **params)
    controller.install_fault_plane(lambda target, method: burst[0])
    return controller


def run_both(params: Dict[str, Any], ops: List[Op], every: int = 1) -> None:
    """Replay ``ops`` on both controllers.

    Op results are compared after every op, the full state after every
    ``every``-th op and after the last.
    """
    lazy_burst, eager_burst = [0], [0]
    lazy = _build(AdmissionController, lazy_burst, **params)
    eager = _build(EagerController, eager_burst, **params)
    for index, op in enumerate(ops, 1):
        results = []
        for controller, burst in ((lazy, lazy_burst), (eager, eager_burst)):
            kind = op[0]
            if kind == "admit":
                _, target, method, principal, burst[0] = op
                results.append(controller.admit(target, method, principal))
            elif kind == "arrive":
                controller.queue(op[1]).arrive(op[2])
            elif kind == "bucket":
                results.append(controller.bucket(op[1]).tokens)
            elif kind == "loads":
                results.append(controller.loads())
            else:
                results.append(controller.levels())
        if results:
            assert results[0] == results[1], op
        if index % every == 0 or index == len(ops):
            assert _state(lazy) == _state(eager), op


params_strategy = st.fixed_dictionaries(
    {
        "queue_capacity": st.sampled_from([8, 64]),
        "drain_per_step": st.sampled_from([0.7, 1.0, 32.0]),
        "principal_refill_per_step": st.sampled_from(
            [0.0, 1e-9, 0.1, 0.3, 0.5, 8.0]
        ),
    }
)


@st.composite
def scenarios(draw: Any) -> Tuple[Dict[str, Any], List[Op]]:
    params = draw(params_strategy)
    targets = ["t%d" % i for i in range(draw(st.integers(1, 4)))]
    principals = ["p%d" % i for i in range(draw(st.integers(1, 300)))]
    target = st.sampled_from(targets)
    principal = st.sampled_from(principals)
    op = st.one_of(
        st.tuples(
            st.just("admit"),
            target,
            st.sampled_from(METHODS),
            st.one_of(st.none(), principal),
            st.one_of(st.just(0), st.integers(0, 40)),
        ),
        st.tuples(st.just("arrive"), target, st.sampled_from([0.5, 1.0, 7.0, 30.0])),
        st.tuples(st.just("bucket"), principal),
        st.tuples(st.just("loads")),
        st.tuples(st.just("levels")),
    )
    return params, draw(st.lists(op, min_size=1, max_size=120))


@given(scenarios())
@example(
    # Three missed 0.1 refills: the closed form min(capacity, tokens +
    # k * refill) gives 7.3, three one-step refills 7.299999999999999.
    (
        {"queue_capacity": 64, "drain_per_step": 1.0,
         "principal_refill_per_step": 0.1},
        [("admit", "t0", "locate_user", "p0", 0)]
        + [("admit", "t0", "locate_user", "p1", 0)] * 3
        + [("bucket", "p0")],
    )
)
def test_lazy_steps_match_the_eager_reference(scenario):
    params, ops = scenario
    run_both(params, ops)


def test_round_robin_over_many_principals_matches_the_reference():
    """Every principal misses ~300 steps between its own checks."""
    for refill in (1e-9, 0.1, 0.3):
        ops: List[Op] = [
            ("admit", "t%d" % (i % 2), METHODS[i % 3], "p%d" % (i % 300), i % 7)
            for i in range(900)
        ]
        run_both(
            {"queue_capacity": 64, "drain_per_step": 0.7,
             "principal_refill_per_step": refill},
            ops,
            every=50,
        )
