"""Deterministic Python calls per E20 operation, parent against change.

    python benchmarks/calls_per_op.py PARENT_DIR CHANGE_DIR --workload pull

The noise-free companion to ``ab_pairs.py``.  Each checkout runs in a
fresh process (``PYTHONHASHSEED=0``) that imports that checkout's
``src`` and ``benchmarks/e20/workloads.py``, builds the workload once,
runs ``--warmup`` operations of the seeded sequence, then counts every
Python ``call`` event (``sys.setprofile``; calls into C do not count)
over the next ``--ops`` operations.  The script prints the mean calls
per op, in total, per module (``repro`` modules by their path inside
the package, anything else by file name) and per function
(``module:qualname``), the ``--top`` of each, for both checkouts.

Only the single-client workloads (``pull``, ``pull_cached``, ``feed``)
have a seeded operation sequence in one process; ``served`` replays its
traces from two client threads and is refused.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys

SINGLE_CLIENT = ("pull", "pull_cached", "feed")


def _module(filename: str) -> str:
    """``skipindex/decoder`` for a repro module, else the file's stem."""
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0:
        return path[at + len(marker):].removesuffix(".py")
    if path.startswith("<"):
        return path
    return pathlib.PurePosixPath(path).stem


def count(tree: pathlib.Path, workload: str, seed: int, warmup: int, ops: int) -> dict:
    """Calls per op in ``tree``, run in this process (the child side)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e20")]
    from workloads import WORKLOADS

    world = WORKLOADS[workload](seed)
    world.build()
    calls: collections.Counter[str] = collections.Counter()
    functions: collections.Counter[str] = collections.Counter()
    by_code: collections.Counter = collections.Counter()

    def profile(frame, event, _arg) -> None:
        if event == "call":
            by_code[frame.f_code] += 1

    try:
        for index in range(warmup + ops):
            _, run = world._choose()
            if index < warmup:
                run()
                continue
            sys.setprofile(profile)
            try:
                run()
            finally:
                sys.setprofile(None)
    finally:
        world.close()
    for code, n in by_code.items():
        module = _module(code.co_filename)
        calls[module] += n
        functions[f"{module}:{getattr(code, 'co_qualname', code.co_name)}"] += n
    return {"ops": ops, "calls": dict(calls), "functions": dict(functions)}


def measure(tree: pathlib.Path, args: argparse.Namespace) -> dict:
    """Run :func:`count` for ``tree`` in a fresh, hash-seeded process."""
    command = [
        sys.executable, __file__, str(tree), "--child",
        "--workload", args.workload, "--seed", str(args.seed),
        "--warmup", str(args.warmup), "--ops", str(args.ops),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{tree}: exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("trees", type=pathlib.Path, nargs="+",
                        help="checkouts to count, usually PARENT_DIR CHANGE_DIR")
    parser.add_argument("--workload", required=True, choices=SINGLE_CLIENT)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--warmup", type=int, default=10, help="uncounted ops first")
    parser.add_argument("--ops", type=int, default=40, help="counted ops")
    parser.add_argument("--top", type=int, default=15,
                        help="modules listed, and functions listed")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        result = count(args.trees[0].resolve(), args.workload, args.seed, args.warmup, args.ops)
        print(json.dumps(result))
        return 0
    results = [measure(tree.resolve(), args) for tree in args.trees]
    print(f"E20 {args.workload}: seed {args.seed}, Python calls per op over "
          f"{args.ops} ops after {args.warmup}")
    header = "".join(f"{tree.name[-14:]:>16}" for tree in args.trees)
    for key, title in (("calls", "module"), ("functions", "function")):
        per_op = [
            {name: n / result["ops"] for name, n in result[key].items()}
            for result in results
        ]
        print(f"  {title:<44}{header}")
        if key == "calls":
            totals = [sum(side.values()) for side in per_op]
            print(f"  {'total':<44}" + "".join(f"{total:>16,.1f}" for total in totals))
        names = sorted(
            set().union(*per_op), key=lambda name: -max(side.get(name, 0.0) for side in per_op)
        )
        for name in names[:args.top]:
            print(f"  {name:<44}" + "".join(f"{side.get(name, 0.0):>16,.1f}" for side in per_op))
    return 0


if __name__ == "__main__":
    sys.exit(main())
