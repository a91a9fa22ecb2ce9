"""Alternating parent/change pairs of one E20 workload.

    python benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR --workload pull --pairs 10

Pair ``i`` runs ``benchmarks/e20/run.py --workload W --seed i --trace 0``
once in each checkout, each in a fresh process; odd pairs run the
parent first, even pairs the change.  Each run's last line of standard
output is its JSON result.  For every end-to-end metric that
``BENCHMARK.json`` (in CHANGE_DIR) names, the script prints each side's
median and quartiles, the pairs the change won (ties count for
neither) and whether the gain rule holds: the change wins at least 9
of every 10 pairs, and its median beats the parent's by more than the
parent's interquartile range.  Each metric also gets a no-regression
verdict against its ``bound`` (a fraction of the parent median):
``regressed`` when the change's median is worse than the parent's by
more than the bound, ``unresolved`` when the parent's IQR/median
exceeds the bound and not every change run beats every parent run,
else ``ok``.  Every pair is printed as it finishes.  Each run also
writes its full record (``--json``), whose ``exact`` block holds the
seeded counts over the first ops (APDUs, DSP requests, wraps, compiles
and modeled clock components); the script prints in how many pairs the
two sides' blocks were identical, and each differing key with both
values.  The script exits 1 when a run fails or reports failed
operations.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Verdict:
    """One metric over a set of pairs, parent against change."""

    pairs: int
    wins: int  # pairs in which the change was strictly better
    parent: tuple[float, float, float]  # q1, median, q3
    change: tuple[float, float, float]
    gain: float  # parent median - change median, positive when better
    parent_iqr: float
    separated: bool  # every change run beat every parent run

    @property
    def holds(self) -> bool:
        """At least 9/10 of the pairs won, and a gain wider than the
        parent's spread."""
        return self.wins * 10 >= 9 * self.pairs and self.gain > self.parent_iqr

    def regression(self, bound: float) -> str:
        """``regressed``, ``unresolved`` or ``ok`` under ``bound``, a
        fraction of the parent median."""
        limit = bound * abs(self.parent[1])
        if -self.gain > limit:
            return "regressed"
        if self.parent_iqr > limit and not self.separated:
            return "unresolved"
        return "ok"


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)  # the exclusive method
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str) -> Verdict:
    """Judge ``change`` against ``parent``, paired by index.

    ``better`` is ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on each side")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    before, after = _quartiles(parent), _quartiles(change)
    return Verdict(
        pairs=len(parent),
        wins=sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        parent=before,
        change=after,
        gain=sign * (before[1] - after[1]),
        parent_iqr=before[2] - before[0],
        separated=min(sign * p for p in parent) > max(sign * c for c in change),
    )


def exact_diff(parent: dict, change: dict) -> dict[str, tuple]:
    """The keys of two ``exact`` blocks whose values differ, each with
    its ``(parent, change)`` values; a key one side lacks reads ``None``."""
    return {
        key: (parent.get(key), change.get(key))
        for key in sorted(parent.keys() | change.keys())
        if parent.get(key) != change.get(key)
    }


def run_once(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """One untraced E20 run in ``tree``; its parsed JSON result, with
    the full record's ``exact`` block added."""
    with tempfile.TemporaryDirectory() as scratch:
        record_path = pathlib.Path(scratch) / "record.json"
        command = [
            sys.executable, "benchmarks/e20/run.py",
            "--workload", workload, "--seed", str(seed), "--trace", "0",
            "--json", str(record_path),
        ]
        done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{tree}: no output (exit {done.returncode}): {done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        result["exit"] = done.returncode
        result["exact"] = (
            json.loads(record_path.read_text())["exact"] if record_path.exists() else {}
        )
    return result


def _row(name: str, unit: str, bound: float, judged: Verdict) -> str:
    q1, median, q3 = judged.parent
    c1, cmedian, c3 = judged.change
    return (
        f"{name:<12} {unit:<4} parent {median:10.4g} [{q1:.4g}, {q3:.4g}]"
        f"  change {cmedian:10.4g} [{c1:.4g}, {c3:.4g}]"
        f"  wins {judged.wins}/{judged.pairs}  gain {judged.gain:+.4g}"
        f"  parent IQR {judged.parent_iqr:.4g}  rule {'holds' if judged.holds else 'fails'}"
        f"  bound {bound:g} {judged.regression(bound)}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {
        side: {metric["name"]: [] for metric in metrics} for side in sides
    }
    failed = 0
    exact_diffs: list[dict[str, tuple]] = []
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        results = {side: run_once(sides[side], args.workload, seed) for side in order}
        for side, result in results.items():
            failed += result["failed"] + (result["exit"] != 0)
            for metric in metrics:
                values[side][metric["name"]].append(result["metrics"][metric["name"]]["value"])
        cells = "  ".join(
            f"{metric['name']} {results['parent']['metrics'][metric['name']]['value']:.4g}"
            f" -> {results['change']['metrics'][metric['name']]['value']:.4g}"
            for metric in metrics
        )
        print(f"pair {seed:2d} ({order[0]} first)  {cells}", flush=True)
        exact_diffs.append(exact_diff(results["parent"]["exact"], results["change"]["exact"]))
    print(f"\n{args.workload}: {args.pairs} pairs, failed runs or ops: {failed}")
    for metric in metrics:
        name = metric["name"]
        judged = verdict(values["parent"][name], values["change"][name], metric["better"])
        print(_row(name, metric["unit"], metric["bound"], judged))
    identical = sum(not diff for diff in exact_diffs)
    print(f"exact identical in {identical}/{args.pairs} pairs")
    for seed, diff in enumerate(exact_diffs, start=1):
        for key, (before, after) in diff.items():
            print(f"  pair {seed:2d} exact {key}: {before} -> {after}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
