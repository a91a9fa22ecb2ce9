"""CPU per served request on each side of the socket, parent against change.

    python benchmarks/served_cpu.py PARENT_DIR CHANGE_DIR --pairs 5 --seconds 5

E20 ``served`` reports one number per run, ``ops_per_s``, for a
workload whose reactor (in a child process) and two ``RemoteDSP``
client threads (in the main process) share one vCPU.  This script
splits that cost by side.  Each run imports one checkout's ``src`` and
``benchmarks/e20/workloads.py`` in a fresh process, builds
``ServedWorkload`` as E20 does (three set-ups, the last one kept), runs
its closed loop for ``--seconds`` in blocks of 0.2 s and prints per
served request:

* client CPU: user plus system time of the main process
  (``getrusage``) over each block, which runs the client threads;
* reactor CPU: the child's ``block_stats()["cpu_s"]`` over each block;
* the reactor's response-cache hit ratio.

A shared host's speed drifts by several times within a run, so each
block's CPU is scaled by E20's calibration probe (``calibrate.py``),
taken between blocks, exactly as E20 scales its timings: the figures
are microseconds on a machine where the probe takes its nominal time.

It also prints each process's peak RSS: the main process's
``ru_maxrss`` after ``close`` and the child's ``maxrss_kb`` from its
last ``block_stats``.  E20's ``peak_rss_mb`` is their sum.  Pairs
alternate which checkout runs first; the summary gives each side's
median.  The script exits 1 when a run fails or a session reads wrong
bytes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

#: Set-ups per run, as in ``benchmarks/e20/run.py``.
SETUPS = 3
#: Length of one ``run_block``, as in ``benchmarks/e20/measure.py``.
BLOCK_S = 0.2


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run(tree: pathlib.Path, seed: int, seconds: float) -> dict:
    """One measured run of ``ServedWorkload`` from ``tree`` (the child side)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e20")]
    from calibrate import Calibrator
    from workloads import ServedWorkload

    world = None
    for _ in range(SETUPS):
        if world is not None:
            world.close()
        gc.collect()
        world = ServedWorkload(seed)
        world.build()
    assert world is not None
    calibrator = Calibrator()
    sessions = failed = requests = hits = 0
    client_s = reactor_s = 0.0  # calibrated
    try:
        probe = calibrator.probe()
        stats = world.block_stats()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            cpu = _cpu_s()
            ops, _ = world.run_block(time.perf_counter() + BLOCK_S, None)
            cpu = _cpu_s() - cpu
            after = world.block_stats()
            probe_after = calibrator.probe()
            scale = calibrator.factor(probe, probe_after)
            client_s += cpu * scale
            reactor_s += (after["cpu_s"] - stats["cpu_s"]) * scale
            requests += after["requests"] - stats["requests"]
            hits += after["cache_hits"] - stats["cache_hits"]
            sessions += sum(op.kind == "read" for op in ops)
            failed += sum(not op.ok for op in ops)
            stats, probe = after, probe_after
    finally:
        world.close()
    return {
        "sessions": sessions,
        "failed": failed,
        "requests": requests,
        "client_us": 1e6 * client_s / max(1, requests),
        "reactor_us": 1e6 * reactor_s / max(1, requests),
        "hit_ratio": hits / max(1, requests),
        "main_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "child_rss_mb": stats["maxrss_kb"] / 1024.0,
    }


def run_fresh(tree: pathlib.Path, seed: int, seconds: float) -> dict:
    """:func:`run` for ``tree`` in a fresh process."""
    command = [
        sys.executable, __file__, str(tree), "--child",
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{tree}: exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


COLUMNS = (
    ("reactor_us", "reactor us/req", "{:8.2f}"),
    ("client_us", "client us/req", "{:8.2f}"),
    ("hit_ratio", "cache hits", "{:8.3f}"),
    ("main_rss_mb", "main RSS MB", "{:8.2f}"),
    ("child_rss_mb", "child RSS MB", "{:8.2f}"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("trees", type=pathlib.Path, nargs="+",
                        help="PARENT_DIR CHANGE_DIR (or one checkout with --child)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5.0, help="measured seconds per run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run(args.trees[0].resolve(), args.seed, args.seconds)))
        return 0
    if len(args.trees) != 2:
        parser.error("give two checkouts: PARENT_DIR CHANGE_DIR")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.trees[0].resolve(), "change": args.trees[1].resolve()}
    results: dict[str, list[dict]] = {side: [] for side in sides}
    bad = 0
    print("side    seed  " + "  ".join(f"{title:>14}" for _, title, _ in COLUMNS)
          + "  requests  failed")
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_fresh(sides[side], seed, args.seconds)
            results[side].append(result)
            bad += result["failed"] + (result["sessions"] == 0)
            print(f"{side:<7} {seed:4d}  " + "  ".join(
                f"{fmt.format(result[key]):>14}" for key, _, fmt in COLUMNS
            ) + f"  {result['requests']:8d}  {result['failed']:6d}", flush=True)
    print(f"\nmedians over {args.pairs} pair(s), {args.seconds:g} s each")
    for key, title, fmt in COLUMNS:
        before = statistics.median(r[key] for r in results["parent"])
        after = statistics.median(r[key] for r in results["change"])
        change = f"{100 * (after - before) / before:+6.1f}%" if before else ""
        print(f"{title:<15} parent {fmt.format(before)}  change {fmt.format(after)}  {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
