"""The load loop's memory checkpoint and the untimed top-up ops."""

from __future__ import annotations

from perf import run


class Counter:
    """A stand-in workload: op ``n`` is ``n``; every third op is refused."""

    refusals = (LookupError,)

    def __init__(self) -> None:
        self.sent = 0
        self.observed = []

    def next_op(self) -> int:
        self.sent += 1
        return self.sent

    def call(self, op: int) -> int:
        if op % 3 == 0:
            raise LookupError(op)
        return op

    def weight(self, result: int) -> int:
        return 1

    def observe(self, op: int, result) -> None:
        self.observed.append((op, result))


def test_peak_rss_is_read_at_the_checkpoint_op_only_if_reached():
    bench = Counter()
    window = run.drive(bench, bench.call, 0.05, probe=False, memory_at=3)
    assert window.attempted >= 3
    assert window.peak_rss_mb is not None and window.peak_rss_mb > 0
    far = run.drive(bench, bench.call, 0.01, probe=False, memory_at=10 ** 9)
    assert far.peak_rss_mb is None


def test_top_up_ops_are_observed_and_refusals_read_as_none():
    bench = Counter()
    run.top_up(bench, 4)
    assert bench.observed == [(1, 1), (2, 2), (3, None), (4, 4)]
    run.top_up(bench, -2)
    assert bench.sent == 4
