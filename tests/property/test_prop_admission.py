"""Property tests for the overload-protection primitives.

The admission layer's guarantees at any population size: token
buckets never go negative and never exceed capacity, topic-queue
watermark levels agree with the load fraction, CRITICAL traffic is
never shed, and the shed ledger always balances.  Hypothesis drives
arbitrary operation sequences through each invariant.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.net import admission
from repro.net.admission import (
    DEFAULT_METHOD_PRIORITIES,
    HIGH_WATERMARK,
    SHED_WATERMARK,
    AdmissionController,
    LoadLevel,
    Priority,
    TokenBucket,
    TopicQueue,
)
from repro.obs.metrics import MetricsRegistry

buckets = st.builds(
    TokenBucket,
    capacity=st.floats(0.5, 64.0, allow_nan=False),
    refill_per_step=st.floats(0.0, 8.0, allow_nan=False),
)

bucket_ops = st.lists(
    st.one_of(
        st.just(("step", 0.0)),
        st.tuples(st.just("take"), st.floats(0.0, 16.0, allow_nan=False)),
    ),
    max_size=64,
)

queues = st.builds(
    TopicQueue,
    capacity=st.integers(1, 256),
    drain_per_step=st.floats(0.5, 32.0, allow_nan=False),
)

queue_ops = st.lists(
    st.one_of(
        st.just(("drain", 0.0)),
        st.tuples(st.just("arrive"), st.floats(0.0, 300.0, allow_nan=False)),
    ),
    max_size=64,
)


class TestTokenBucketProperties:
    @given(bucket=buckets, ops=bucket_ops)
    def test_tokens_stay_within_bounds(self, bucket, ops):
        for op, amount in ops:
            if op == "step":
                bucket.step()
            else:
                bucket.try_take(amount)
            assert 0.0 <= bucket.tokens <= bucket.capacity

    @given(bucket=buckets, spends=st.lists(st.floats(0.0, 16.0), max_size=32))
    def test_refill_is_monotone(self, bucket, spends):
        for spend in spends:
            bucket.try_take(spend)
        before = bucket.tokens
        bucket.step()
        assert bucket.tokens >= before

    @given(bucket=buckets, cost=st.floats(0.0, 200.0, allow_nan=False))
    def test_failed_take_leaves_tokens_unchanged(self, bucket, cost):
        before = bucket.tokens
        taken = bucket.try_take(cost)
        if taken:
            assert bucket.tokens == before - cost
        else:
            assert bucket.tokens == before


class TestTopicQueueProperties:
    @given(queue=queues, ops=queue_ops)
    def test_depth_stays_within_capacity(self, queue, ops):
        for op, units in ops:
            if op == "drain":
                queue.drain()
            else:
                queue.arrive(units)
            assert 0.0 <= queue.depth <= queue.capacity
            assert 0.0 <= queue.load <= 1.0

    @given(
        queue=queues,
        ops=queue_ops,
        high=st.floats(0.05, 0.6, allow_nan=False),
        shed=st.floats(0.65, 1.0, allow_nan=False),
    )
    def test_level_agrees_with_watermarks(self, queue, ops, high, shed):
        with mock.patch.object(admission, "HIGH_WATERMARK", high), \
                mock.patch.object(admission, "SHED_WATERMARK", shed):
            for op, units in ops:
                if op == "drain":
                    queue.drain()
                else:
                    queue.arrive(units)
                level = queue.level()
                if level is LoadLevel.OVERLOAD:
                    assert queue.load >= shed
                elif level is LoadLevel.BROWNOUT:
                    assert high <= queue.load < shed
                else:
                    assert queue.load < high


calls = st.lists(
    st.tuples(
        st.sampled_from(["tippers", "irr"]),
        st.sampled_from(
            ["get_policy_document", "locate_user", "discover", "dsar_report"]
        ),
        st.sampled_from(["alice", "bob", "svc", None]),
    ),
    max_size=80,
)


class TestAdmissionControllerProperties:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**16), burst=st.integers(0, 40), ops=calls)
    def test_critical_is_never_shed_and_ledger_balances(
        self, seed, burst, ops
    ):
        controller = AdmissionController(
            seed=seed,
            queue_capacity=16,
            drain_per_step=1.0,
            principal_capacity=4.0,
            principal_refill_per_step=0.25,
            metrics=MetricsRegistry(),
        )
        if burst:
            controller.install_fault_plane(lambda target, method: burst)
        for target, method, principal in ops:
            ticket = controller.admit(target, method, principal)
            if DEFAULT_METHOD_PRIORITIES.get(method) is Priority.CRITICAL:
                assert ticket.admitted
            if not ticket.admitted and "over budget" not in ticket.reason:
                # Non-budget sheds only happen under watermark pressure.
                if ticket.priority is Priority.NORMAL:
                    assert ticket.load >= SHED_WATERMARK
                else:
                    assert ticket.load >= HIGH_WATERMARK
        ledger = controller.ledger
        assert ledger.checked == ledger.admitted + ledger.shed
        assert ledger.checked == len(ops)
        assert sum(ledger.admitted_by_class.values()) == ledger.admitted
        assert sum(ledger.shed_by_class.values()) == ledger.shed
        assert ledger.shed_by_class.get(Priority.CRITICAL.value, 0) == 0
