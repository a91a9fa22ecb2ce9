"""Wall-clock calibration against a fixed pure-Python probe.

A shared 2-vCPU virtual machine drifts by several times within one run, so a
raw wall time mixes the program's speed with the machine's.  The probe
is a fixed amount of interpreter work of the kind the program does:
small dicts, lists and tuples kept alive (so the allocator works as it
does under a parse), and a tree of slotted objects built recursively
and walked by nested generators.  It never imports ``repro``, and the
garbage collector is off while it runs, so no change to the program
can change it.  It runs
only between measured blocks, while no measured work is in flight.  A
block's raw times are scaled by ``NOMINAL_MS / min(probe before, probe
after)``: a calibrated millisecond is the time the operation would take
on a machine where the probe takes exactly ``NOMINAL_MS``.

The lesser of the two probes, not their mean: interference (a
preemption, a neighbour's burst) only ever lengthens a probe, so the
shorter one is the better reading of the block's speed.

The kind of work matters because a busy host does not slow all code
alike.  An earlier probe built long strings and byte arrays.  Over six
minutes on a host whose probes ranged from 12 to 34 ms, 5-second
medians of pulls, catch-ups and cache hits varied by 14.5-15% (CV) raw,
by 6.7-9.2% scaled by that probe and by 4.3-4.9% scaled by this one.
Program time grew as that probe's time to the power 0.51-0.55, and as
this one's to the power 0.67-0.71: no probe slows exactly as the
program does, but this one over-corrects a slow phase less.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Iterator

#: What a probe "should" take; calibrated times are in these units.
NOMINAL_MS = 10.0

#: Fixed probe size, tuned so one probe is about ``NOMINAL_MS`` on an
#: idle 2-vCPU x86-64 KVM guest (Intel Xeon) running CPython 3.11.
PROBE_ROUNDS = 13000
PROBE_TREES = 4


class _Node:
    __slots__ = ("tag", "attrs", "kids")

    def __init__(self, tag: str, attrs: dict[str, int]) -> None:
        self.tag = tag
        self.attrs = attrs
        self.kids: list[_Node] = []


def _build(depth: int) -> _Node:
    node = _Node("n" + str(depth), {"depth": depth})
    if depth:
        node.kids = [_build(depth - 1) for _ in range(4 if depth > 3 else 2)]
    return node


def _walk(node: _Node) -> Iterator[str]:
    yield node.tag
    for kid in node.kids:
        yield from _walk(kid)


def probe_work(rounds: int = PROBE_ROUNDS, trees: int = PROBE_TREES) -> int:
    """The fixed probe workload; returns a checksum so nothing is elided."""
    kept = []
    for i in range(rounds):
        record = {"tag": "x", "attrs": [i, i + 1], "kids": ()}
        kept.append((record, [record["tag"]] * 3))
    checksum = len(kept)
    for _ in range(trees):
        checksum += sum(len(tag) for tag in _walk(_build(6)))
    return checksum


def timed_probe() -> float:
    """Run one probe; its wall time in milliseconds.

    The collector is off while it runs: a full collection walks every
    live object, so its cost would make the probe depend on how much
    the program keeps alive.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        probe_work()
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()


class Calibrator:
    """Probes taken between measured blocks, and the scale they imply.

    ``probe`` is injectable so tests can model a machine that slows
    down; every probe taken is kept for the report.
    """

    def __init__(self, probe: Callable[[], float] = timed_probe) -> None:
        self._probe = probe
        self.probes: list[float] = []

    def probe(self) -> float:
        value = self._probe()
        self.probes.append(value)
        return value

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Scale for a block bracketed by two probes."""
        return NOMINAL_MS / min(before_ms, after_ms)

    def timed(self, work: Callable[[], object]) -> tuple[float, float]:
        """Run ``work`` between two probes: (raw s, calibrated s)."""
        before = self.probe()
        started = time.perf_counter()
        work()
        raw = time.perf_counter() - started
        after = self.probe()
        return raw, raw * self.factor(before, after)
