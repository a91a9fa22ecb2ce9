"""E20 -- one end-to-end benchmark: pull, pull_cached, served, feed.

Four workloads, each in a fresh process, drive repro through its
public API for a fixed wall-clock time after a warm-up pass, check
every read byte for byte, and report calibrated end-to-end metrics
(``BENCHMARK.json`` at the repository root names them, with units and
regression bounds).  A traced run reports per-layer self time next to
SimClock's modeled share instead.  See ``benchmarks/e20/README.md``.

Usage::

    python benchmarks/e20/run.py                      # every workload once
    python benchmarks/e20/run.py --workload pull --seed 3
    python benchmarks/e20/run.py --trace              # per-layer table
    python benchmarks/e20/run.py --repeat 5           # medians, quartiles, flags
    python benchmarks/e20/run.py --quick              # smoke run, about 20 s
    python benchmarks/e20/run.py --repeat 5 --trace --json out.json

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits non-zero
when any operation fails or any read differs from its oracle.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("pull", "pull_cached", "served", "feed")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted so that runners reading BENCHMARK.json can pass its "
                             f"run_seconds ({spec['run_seconds']}); the run length is fixed")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, fresh processes, alternating workload order")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: a tenth of the time and reads, one set-up (never for comparisons)")
    parser.add_argument("--json", metavar="PATH", help="write the full results here")
    args = parser.parse_args(argv)
    # The run length is part of the benchmark, not a knob: the tail
    # percentile a run can report depends on how many reads it times.
    seconds = max(1.0, spec["run_seconds"] / 10) if args.quick else float(spec["run_seconds"])
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds:g}: BENCHMARK.json's run_seconds"
                     + (", a tenth under --quick" if args.quick else ""))
    args.seconds = seconds
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


# -- one workload, in this process --------------------------------------------


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_layers(record: dict) -> None:
    """Each layer's wall self time next to its SimClock share, per read."""
    print(f"  {'layer':<18}{'calls/op':>10}{'self ms/op':>12}{'wall %':>9}{'modeled %':>11}")
    for row in record["layers"]:
        print(f"  {row['layer']:<18}{row['calls']:>10.1f}{row['self_ms']:>12.3f}"
              f"{100 * row['wall_share']:>9.1f}{100 * row['modeled_share']:>11.1f}")
    print(f"  trace.overhead {record['per_layer']['trace.overhead']:.3f} "
          f"({record['trace_spans']} spans kept)")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from measure import measure
    from stats import MIN_READS

    setups = 1 if args.quick else SETUPS
    min_reads = MIN_READS // 10 if args.quick else MIN_READS
    trace_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), setups, min_reads,
                     trace_path=str(trace_path) if trace_path else None)
    detail = record["detail"]
    assert args.quick or detail["op_tail_pct"] == 99.0, "a full run reports a true p99"
    mode = "traced" if args.trace else "untraced"
    print(f"E20 {args.workload}: seed {args.seed}, {args.seconds:g} s measured, {mode}, "
          f"{setups} set-up(s), {record['attempted']} ops "
          f"({detail['reads']} reads, {detail['writes']} writes), {record['failed']} failed")
    if args.trace:
        metrics = {m["name"]: (record["per_layer"][m["name"]], m["unit"]) for m in spec["per_layer"]}
        print_layers(record)
        print(f"  spans: {trace_path.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: (record["end_to_end"][m["name"]], m["unit"]) for m in spec["end_to_end"]}
        samples = {
            "setup_s": f"{setups} set-up(s)",
            "op_p50_ms": f"{detail['untraced_reads']} reads",
            "op_p99_ms": f"{detail['untraced_reads']} reads, p{_fmt(detail['op_tail_pct'])}",
            "ops_per_s": f"{record['attempted']} ops",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:<20}{_fmt(value):>12} {unit:<6} {samples.get(name, '')}")
    extras = ("first_piece_p50_ms", "plaintext_mbps", "write_p50_ms", "modeled_ms_per_op", "fail_ratio")
    print("  also: " + ", ".join(f"{key} {_fmt(detail[key])}" for key in extras))
    probe = detail["probe_ms"]
    print(f"  probe: median {probe['median']:.2f} ms (min {probe['min']:.2f}, max {probe['max']:.2f}, "
          f"{probe['count']} probes)")
    for error in record["errors"]:
        print(f"  error: {error}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if record["correct"] else 1


# -- several runs, fresh processes --------------------------------------------


def _child(args: argparse.Namespace, workload: str, trace: int, index: int) -> dict:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"run_{workload}_t{trace}_{index}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--trace", str(trace),
        "--json", str(path),
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if not path.exists():
        raise RuntimeError(f"{workload} run failed:\n{done.stdout}\n{done.stderr}")
    with open(path) as handle:
        record = json.load(handle)
    path.unlink()
    record["exit_code"] = done.returncode
    return record


def run_many(args: argparse.Namespace, spec: dict) -> int:
    from stats import quartiles

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [0, 1] if args.trace else [0]
    runs: list[dict] = []
    for index in range(args.repeat):
        order = names if index % 2 == 0 else names[::-1]
        for trace in modes:
            for workload in order:
                record = _child(args, workload, trace, index)
                runs.append(record)
                values = record["end_to_end"] if not trace else {"trace.overhead": record["per_layer"]["trace.overhead"]}
                print(f"run {index + 1}/{args.repeat} {workload:<12} trace={trace} "
                      + " ".join(f"{k}={_fmt(v)}" for k, v in values.items())
                      + f" attempted={record['attempted']} failed={record['failed']}", flush=True)
    status = 0
    summary: dict = {}
    print()
    print(f"{'workload':<12}{'metric':<14}{'median':>11}{'q1':>11}{'q3':>11}{'IQR/med':>9}{'bound':>7}")
    for workload in names:
        plain = [r for r in runs if r["workload"] == workload and "per_layer" not in r]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            stats = quartiles([r["end_to_end"][metric["name"]] for r in plain])
            stats["bound"] = metric["bound"]
            stats["flag"] = stats["iqr_ratio"] > metric["bound"]
            summary[workload][metric["name"]] = stats
            print(f"{workload:<12}{metric['name']:<14}{stats['median']:>11.4g}{stats['q1']:>11.4g}"
                  f"{stats['q3']:>11.4g}{stats['iqr_ratio']:>9.3f}{metric['bound']:>7.2f}"
                  + ("  FLAG: spread above bound" if stats["flag"] else ""))
        traced = [r for r in runs if r["workload"] == workload and "per_layer" in r]
        if traced:
            summary[workload]["per_layer"] = {
                metric["name"]: quartiles([r["per_layer"][metric["name"]] for r in traced])
                for metric in spec["per_layer"]
            }
        exact = [r["exact"] for r in runs if r["workload"] == workload]
        same = all(e == exact[0] for e in exact)
        summary[workload]["exact"] = {"identical": same, "first": exact[0]}
        print(f"{workload:<12}exact counts over the first {exact[0]['ops']} ops: "
              + ("identical in every run" if same else "DIFFER between runs"))
        if not same:
            status = 1
    layers = {r["workload"]: r["layers"] for r in runs if "layers" in r}
    for r in runs:
        if "layers" in r and layers[r["workload"]] is r["layers"]:
            print(f"\n{r['workload']} (traced, {r['detail']['reads']} reads):")
            print_layers(r)
    for r in runs:
        if not r["correct"] or r["exit_code"]:
            print(f"{r['workload']}: run failed or mismatched: {r['errors']}")
            status = 1
    if args.json:
        result = {
            "benchmark": "E20",
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "summary": summary,
            "layers": layers,
            "runs": runs,
        }
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
        print(f"wrote {args.json}")
    return status


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"e20: no repro sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.workload and args.repeat == 1:
        return run_one(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
