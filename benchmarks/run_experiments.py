"""Regenerate every experiment table (E1..E13) in one run.

Usage::

    python benchmarks/run_experiments.py            # the full battery
    python benchmarks/run_experiments.py --quick    # CI smoke subset
    python benchmarks/run_experiments.py --only e12 # one experiment
    python benchmarks/run_experiments.py --only e13 --json BENCH_E13.json

The output is the source of the measured numbers in EXPERIMENTS.md;
``--json PATH`` additionally writes the tables as machine-readable
``BENCH_*.json`` so the perf trajectory can be tracked across PRs.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import json
import pathlib
import sys
import time

BENCH_DIR = pathlib.Path(__file__).parent
MODULES = sorted(BENCH_DIR.glob("bench_e*.py"))

#: Small, fast experiments exercised by CI's smoke run (--quick).
QUICK = {
    "bench_e2_skip_benefit",
    "bench_e5_ram",
    "bench_e7_dissemination",
    "bench_e8_policy_churn",
    "bench_e10_pending",
    "bench_e12_compile_cache",
    "bench_e19_viewcache",
}


def _select(quick: bool, only: str | None) -> list[pathlib.Path]:
    if only is not None:
        wanted = only.lower()
        chosen = [
            path
            for path in MODULES
            if path.stem.split("_")[1] == wanted or path.stem == wanted
        ]
        if not chosen:
            raise SystemExit(f"no experiment matches {only!r}")
        return chosen
    if quick:
        return [path for path in MODULES if path.stem in QUICK]
    return list(MODULES)


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.pop(0)
    return module


def main() -> None:
    from repro.bench.harness import print_table

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the fast smoke subset (CI)",
    )
    parser.add_argument(
        "--only",
        metavar="EN",
        default=None,
        help="run a single experiment, e.g. --only e12",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write every table as machine-readable JSON "
        "(e.g. BENCH_RESULTS.json), for tracking across PRs",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each experiment under cProfile and dump the top 25 "
        "functions by cumulative time",
    )
    args = parser.parse_args()

    results: dict[str, dict] = {}
    total_start = time.time()
    for path in _select(args.quick, args.only):
        module = _load(path)
        # Newer experiments take a ``quick`` flag on run_experiment();
        # forward --quick to them so the CI smoke run stays a smoke run.
        run_kwargs = (
            {"quick": True}
            if args.quick
            and "quick" in inspect.signature(module.run_experiment).parameters
            else {}
        )
        start = time.time()
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            title, headers, rows = module.run_experiment(**run_kwargs)
            profiler.disable()
            stream = io.StringIO()
            pstats.Stats(profiler, stream=stream).sort_stats(
                "cumulative"
            ).print_stats(25)
            print(f"\n[{path.name}] top 25 by cumulative time:")
            print(stream.getvalue())
        else:
            title, headers, rows = module.run_experiment(**run_kwargs)
        elapsed = time.time() - start
        print()
        print_table(title, headers, rows)
        print(f"[{path.name} in {elapsed:.1f} s]")
        results[path.stem] = {
            "title": title,
            "headers": list(headers),
            "rows": [list(row) for row in rows],
            "wall_seconds": round(elapsed, 3),
        }
    print(f"\nall experiments in {time.time() - total_start:.1f} s")
    if args.json is not None:
        payload = {
            "suite": "repro-smartcard-sdds",
            "experiments": results,
        }
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
