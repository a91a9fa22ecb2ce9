"""Unit tests for E20's measurement helpers.

Run with ``python -m pytest benchmarks/e20``.
"""

from __future__ import annotations

import gc
import inspect
import math
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import calibrate
import stats
import tracer as tracer_module
from calibrate import Calibrator
from stats import MIN_READS, OpMix, ZipfSampler, derive_rng, latency_summary, popularity_order, tail_index
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]


# -- percentile selection ---------------------------------------------------


def test_tail_is_p99_when_ten_samples_lie_beyond_it() -> None:
    summary = latency_summary([float(v) for v in range(1, MIN_READS + 1)])
    assert summary["n"] == MIN_READS == 1000
    assert summary["tail_pct"] == 99.0
    assert summary["tail"] == 990.0  # nearest rank: the 990th of 1000
    assert summary["p50"] == 500.5
    # A full run's floor is the fewest reads that give a true p99.
    assert latency_summary([1.0] * (MIN_READS - 1))["tail_pct"] < 99.0


def test_tail_drops_below_p99_on_short_samples() -> None:
    summary = latency_summary([float(v) for v in range(1, 501)])
    assert summary["tail_pct"] == 98.0
    assert summary["tail"] == 490.0  # exactly ten samples beyond


@pytest.mark.parametrize("n", [0, 1, 10])
def test_no_tail_without_ten_samples_beyond(n: int) -> None:
    assert tail_index(n) is None
    assert latency_summary([1.0] * n)["tail"] is None


def test_tail_index_is_the_highest_with_ten_beyond() -> None:
    for n in range(11, 3000):
        index = tail_index(n)
        assert index is not None
        beyond = n - 1 - index
        assert beyond >= 10
        p99_index = math.ceil(99 * n / 100) - 1
        assert index == p99_index or beyond == 10


# -- self time ----------------------------------------------------------------


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch: pytest.MonkeyPatch) -> FakeClock:
    fake = FakeClock()
    monkeypatch.setattr(tracer_module, "_now", fake)
    return fake


def _nested(t: Tracer, clock: FakeClock):
    """op(0.5) > terminal(5 + 4) > smartcard(1 + 3) > 2 core leaves of 2."""
    leaf = t.leaf(lambda: clock.advance(0.002), "core")

    def card() -> None:
        clock.advance(0.001)
        leaf()
        leaf()
        clock.advance(0.003)

    card_span = t.span(card, "process", "smartcard")

    def terminal() -> None:
        clock.advance(0.005)
        card_span()
        clock.advance(0.004)

    return t.span(terminal, "stream_query", "terminal")


def test_self_time_subtracts_nested_spans_and_aggregated_leaves(clock: FakeClock) -> None:
    t = Tracer()
    assert (t.leaf_cost, t.span_cost) == (0.0, 0.0)
    outer = _nested(t, clock)
    t.begin_op()
    clock.advance(0.0005)
    outer()
    op = t.end_op()
    assert op.self_s["other"] == pytest.approx(0.0005)
    assert op.self_s["terminal"] == pytest.approx(0.009)
    assert op.self_s["smartcard"] == pytest.approx(0.004)
    assert op.self_s["core"] == pytest.approx(0.004)
    assert op.counts["calls:core"] == 2
    # Leaves are summed into their parent, not kept as spans.
    assert sorted(record[2] for record in t.spans) == ["op", "process", "stream_query"]
    assert sum(op.self_s.values()) == pytest.approx(0.0175)


def test_wrapper_cost_moves_from_the_parent_to_the_trace_layer(clock: FakeClock) -> None:
    t = Tracer()
    t.leaf_cost, t.span_cost = 0.0001, 0.0002
    outer = _nested(t, clock)
    t.begin_op()
    outer()
    op = t.end_op()
    assert op.self_s["smartcard"] == pytest.approx(0.004 - 2 * 0.0001)
    assert op.self_s["terminal"] == pytest.approx(0.009 - 0.0002)
    assert op.self_s["trace"] == pytest.approx(2 * 0.0001 + 2 * 0.0002)


def test_generator_span_excludes_the_consumer(clock: FakeClock) -> None:
    t = Tracer()

    def pieces():
        clock.advance(0.001)
        yield 1
        clock.advance(0.002)
        yield 2

    seen = []
    traced = t.generator_span(pieces, "stream_query", "terminal",
                              after=lambda counts, args, kwargs: counts.__setitem__("done", 1))
    t.begin_op()
    for item in traced():
        seen.append(item)
        clock.advance(0.010)  # the consumer's time is not the terminal's
    op = t.end_op()
    assert seen == [1, 2]
    assert op.self_s["terminal"] == pytest.approx(0.003)
    assert op.self_s["other"] == pytest.approx(0.020)
    assert op.counts["done"] == 1


def test_wrappers_pass_through_outside_an_operation(clock: FakeClock) -> None:
    t = Tracer()
    assert t.span(lambda x: x + 1, "f", "core")(1) == 2
    assert t.leaf(lambda x: x * 2, "core")(3) == 6
    assert t.spans == []


# -- calibration --------------------------------------------------------------


def test_block_is_scaled_by_the_lesser_probe_around_it() -> None:
    assert Calibrator.factor(10.0, 10.0) == 1.0
    assert Calibrator.factor(20.0, 20.0) == 0.5  # machine at half speed
    assert Calibrator.factor(20.0, 60.0) == 0.5  # a preempted probe is ignored
    assert Calibrator.factor(60.0, 20.0) == 0.5
    probes = iter([20.0, 25.0])
    calibrator = Calibrator(probe=lambda: next(probes))
    raw, calibrated = calibrator.timed(lambda: time.sleep(0.01))
    assert calibrated == pytest.approx(raw * calibrate.NOMINAL_MS / 20.0)
    assert calibrator.probes == [20.0, 25.0]


def test_uniform_slowdown_cancels() -> None:
    # An op costing k probe-units reads the same at any machine speed.
    for probe_ms in (5.0, 10.0, 40.0):
        raw_ms = 2.5 * probe_ms
        assert raw_ms * Calibrator.factor(probe_ms, probe_ms) == pytest.approx(25.0)


def _imports_program(source: str) -> bool:
    return "import repro" in source or "from repro" in source


def test_probe_is_fixed_work_independent_of_the_program() -> None:
    assert not _imports_program(inspect.getsource(calibrate))
    assert calibrate.probe_work() == calibrate.probe_work()
    assert calibrate.timed_probe() > 0.0
    assert gc.isenabled()  # switched off only inside the probe


# -- seeded generators --------------------------------------------------------


def test_zipf_draws_are_deterministic_in_the_seed() -> None:
    first = ZipfSampler(128, 1.0, derive_rng(7, "client-0"))
    again = ZipfSampler(128, 1.0, derive_rng(7, "client-0"))
    other = ZipfSampler(128, 1.0, derive_rng(8, "client-0"))
    draws = [first() for _ in range(2000)]
    assert draws == [again() for _ in range(2000)]
    assert draws != [other() for _ in range(2000)]
    counts = Counter(draws)
    assert counts.most_common(1)[0][0] == 0
    harmonic = sum(1.0 / rank for rank in range(1, 129))
    assert counts[0] / len(draws) == pytest.approx(1.0 / harmonic, abs=0.03)


def test_popularity_order_is_a_seeded_permutation() -> None:
    order = popularity_order(128, derive_rng(0, "popularity"))
    assert sorted(order) == list(range(128))
    assert order == popularity_order(128, derive_rng(0, "popularity"))
    assert order != popularity_order(128, derive_rng(1, "popularity"))


def test_op_mix_is_deterministic_with_exact_proportions() -> None:
    counts = {"read": 17, "republish": 1, "resubscribe": 1, "broadcast": 1}
    mix = OpMix(counts, derive_rng(3, "mix"))
    again = OpMix(counts, derive_rng(3, "mix"))
    drawn = [mix() for _ in range(5000)]
    assert drawn == [again() for _ in range(5000)]
    other = OpMix(counts, derive_rng(4, "mix"))
    assert drawn != [other() for _ in range(5000)]
    for start in range(0, 5000, 20):  # every cycle holds the exact counts
        assert Counter(drawn[start:start + 20]) == counts
    with pytest.raises(ValueError):
        OpMix({"read": 0}, derive_rng(1, "mix"))


def test_workload_op_sequences_repeat_for_a_seed() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import FeedWorkload, PullCachedWorkload, PullWorkload

    def draws(workload) -> list:
        if isinstance(workload, PullWorkload):
            return [workload.mix() for _ in range(300)]
        if isinstance(workload, PullCachedWorkload):
            return [(workload.mix(), workload.keys()) for _ in range(300)]
        return [(workload.mix(), workload.readers(), workload.family(), workload.rng.random())
                for _ in range(300)]

    for cls in (PullWorkload, PullCachedWorkload, FeedWorkload):
        sequence = draws(cls(5))
        assert sequence == draws(cls(5))
        assert sequence != draws(cls(6))


# -- the command line and the verdict -------------------------------------------


def test_run_length_is_fixed_by_the_spec() -> None:
    import run

    spec = {"run_seconds": 25}
    assert run.parse_args(["--seconds", "25"], spec).seconds == 25.0
    assert run.parse_args(["--quick"], spec).seconds == 2.5
    with pytest.raises(SystemExit):
        run.parse_args(["--seconds", "5"], spec)


def test_a_failed_op_makes_the_run_incorrect() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from measure import Tally, summarize
    from workloads import OpResult

    def record(*ops: OpResult) -> dict:
        tally = Tally()
        tally.add(list(ops), busy_s=0.1, scale=1.0, traced=False)
        return summarize("pull", 1, 1.0, tally, [0.5], [], [10.0], 30.0)

    assert record(OpResult("read", 0.01))["correct"]
    failed = record(OpResult("read", 0.01), OpResult("read", 0.001, ok=False, error="KeyNotGranted: x"))
    assert not failed["correct"]
    assert (failed["failed"], failed["mismatches"]) == (1, 0)


def test_pure_modules_do_not_import_the_program() -> None:
    assert not _imports_program(inspect.getsource(stats))
    assert not _imports_program(inspect.getsource(tracer_module).split("def instrument")[0])
