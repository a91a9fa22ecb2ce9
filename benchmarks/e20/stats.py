"""Pure helpers for E20: tail percentiles, quartiles, seeded generators.

Nothing here imports ``repro``; the unit tests exercise it directly.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from typing import Generic, Hashable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)

#: A reported tail percentile must leave at least this many samples
#: beyond it; with fewer, the "p99" of a short run is one outlier.
TAIL_SAMPLES = 10
#: The fewest reads whose p99 leaves ``TAIL_SAMPLES`` beyond it.  A full
#: run times at least this many, so its reported tail is always the p99
#: and a faster program is not measured at a higher percentile.
MIN_READS = 100 * TAIL_SAMPLES


def tail_index(n: int, want: float = 99.0, beyond: int = TAIL_SAMPLES) -> int | None:
    """Sorted-sample index of the highest percentile <= ``want`` that
    leaves ``beyond`` samples above it.

    Percentiles are nearest-rank: the ``p``-th of ``n`` sorted samples
    sits at index ``ceil(p * n / 100) - 1``.  ``None`` when ``n`` is too
    small for any percentile to leave ``beyond`` samples.
    """
    if n <= beyond:
        return None
    return min(math.ceil(want * n / 100.0) - 1, n - 1 - beyond)


def latency_summary(values: Sequence[float], want: float = 99.0) -> dict:
    """Median and tail of a latency sample, with the sample count.

    ``tail_pct`` is the percentile actually reported: ``want`` when the
    sample is large enough, lower otherwise.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = tail_index(n, want)
    if index is None:
        pct = None
    elif index == math.ceil(want * n / 100.0) - 1:
        pct = want
    else:
        pct = 100.0 * (index + 1) / n
    return {
        "n": n,
        "p50": statistics.median(ordered) if ordered else None,
        "tail_pct": pct,
        "tail": ordered[index] if index is not None else None,
    }


def quartiles(values: Sequence[float]) -> dict:
    """Median, first and third quartile and IQR/median of run results.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    the same quartiles the acceptance spread is defined on.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_ratio": (q3 - q1) / abs(median) if median else 0.0,
        "runs": len(values),
    }


class ZipfSampler:
    """Draw popularity ranks ``0..n-1`` with Zipf(``s``) weights.

    Rank 0 is the most popular.  Callers map ranks to items through a
    seeded permutation (:func:`popularity_order`), so several clients
    drawing independently still agree on which items are hot.
    """

    def __init__(self, n: int, s: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError("need at least one item")
        self._rng = rng
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank**s
            self._cumulative.append(total)
        self._total = total

    def __call__(self) -> int:
        point = self._rng.random() * self._total
        rank = bisect.bisect_right(self._cumulative, point)
        return min(rank, len(self._cumulative) - 1)


def popularity_order(n: int, rng: random.Random) -> list[int]:
    """A seeded permutation mapping popularity rank to item index."""
    order = list(range(n))
    rng.shuffle(order)
    return order


class OpMix(Generic[T]):
    """An endless sequence of choices in exact proportions.

    Each cycle holds exactly ``counts[choice]`` of every choice (an op
    kind, a document and reader, a member), shuffled by the seeded RNG.
    Drawn independently, the share of each choice in a run wanders from
    seed to seed -- the number of writes, and so every cache-miss-driven
    metric; which readers land around the median, and so the median.  A
    cycle fixes the shares and leaves the seed the order.
    """

    def __init__(self, counts: dict[T, int], rng: random.Random) -> None:
        if not counts or min(counts.values()) < 1:
            raise ValueError("every choice needs a positive count")
        self._rng = rng
        self._cycle = [choice for choice, count in counts.items() for _ in range(count)]
        self._pending: list[T] = []

    def __call__(self) -> T:
        if not self._pending:
            self._pending = list(self._cycle)
            self._rng.shuffle(self._pending)
        return self._pending.pop()


def derive_rng(seed: int, stream: str) -> random.Random:
    """An independent RNG per named stream of one seed."""
    return random.Random(f"e20|{seed}|{stream}")
