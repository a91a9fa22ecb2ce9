"""E14 -- real wall-clock throughput of the end-to-end pipeline.

Every other experiment reports the *modeled* clock
(:class:`repro.smartcard.resources.SimClock`); E14 is the first to
measure what the Python actually costs.  Over the E1 corpus (hospital
documents at several sizes, coarse- and fine-grained subjects, with and
without the skip index) it times three stages with
``time.perf_counter``:

* **publish** -- encode the SXS stream, seal the container, store at
  the DSP (owner side);
* **cold session** -- a member's first session: allocate the card,
  unlock the document secret through the PKI and stream the full pull
  session (decrypt -> check -> parse -> evaluate -> output), exactly
  the per-point work of :func:`repro.bench.harness.run_pull_session`;
* **warm session** -- a second session on the same card (key already
  unlocked, compiled policy cached).

The committed ``BENCH_E14.json`` records these numbers for the
pre-optimization revision and for the current tree, so every future PR
has a wall-clock trajectory to compare against.  ``--check`` is the CI
regression gate: it re-measures the quick subset and fails if
throughput fell more than the threshold against the committed numbers,
after normalizing by a pure-Python calibration loop so slower CI
machines do not trip it.

Usage::

    python benchmarks/bench_e14_wallclock.py                # full corpus
    python benchmarks/bench_e14_wallclock.py --quick        # CI subset
    python benchmarks/bench_e14_wallclock.py --json out.json
    python benchmarks/bench_e14_wallclock.py --profile      # cProfile stages
    python benchmarks/bench_e14_wallclock.py --quick --check BENCH_E14.json
"""

import argparse
import cProfile
import io
import json
import pstats
import sys
import time

from _common import emit

from repro.community import Community
from repro.skipindex.encoder import IndexMode
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

CHUNK = 64  # matches E1
SUBJECTS = ("accountant", "doctor")
FULL_CORPUS = [
    (patients, mode)
    for patients in (5, 10, 20, 40)
    for mode in (IndexMode.RECURSIVE, IndexMode.NONE)
]
QUICK_CORPUS = [(5, IndexMode.RECURSIVE), (10, IndexMode.RECURSIVE)]

#: CI regression gate: fail when calibrated throughput drops below this
#: fraction of the committed value.
CHECK_THRESHOLD = 0.70


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (machine-speed proxy)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def _pull(reader, document) -> str:
    """One full pull session of ``document`` through ``reader``'s card."""
    with reader.open(document) as session:
        return session.query().text()


def _measure_point(patients: int, mode: IndexMode, repeats: int) -> dict:
    """Best-of-``repeats`` wall times for one corpus point."""
    events = list(tree_to_events(hospital(n_patients=patients)))
    rules = hospital_rules()
    best = None
    for _ in range(repeats):
        community = Community()
        owner = community.enroll("owner")
        readers = [community.enroll(subject) for subject in SUBJECTS]
        start = time.perf_counter()
        document = owner.publish(
            events, rules, to=readers, doc_id="bench-doc",
            index_mode=mode, chunk_size=CHUNK,
        )
        publish_s = time.perf_counter() - start
        cold_s = warm_s = 0.0
        for reader in readers:
            start = time.perf_counter()
            _pull(reader, document)
            cold_s += time.perf_counter() - start
            start = time.perf_counter()
            _pull(reader, document)
            warm_s += time.perf_counter() - start
        plaintext = document.container.header.total_length
        sample = {
            "publish_s": publish_s,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "plaintext_bytes": plaintext,
            "sessions": len(SUBJECTS),
        }
        if best is None or sample["cold_s"] < best["cold_s"]:
            best = sample
    return best


def measure_corpus(quick: bool = False) -> dict:
    corpus = QUICK_CORPUS if quick else FULL_CORPUS
    repeats = 1 if quick else 2
    points = []
    totals = {"publish_s": 0.0, "cold_s": 0.0, "warm_s": 0.0, "session_plaintext": 0}
    for patients, mode in corpus:
        sample = _measure_point(patients, mode, repeats)
        points.append({"patients": patients, "mode": mode.name, **sample})
        totals["publish_s"] += sample["publish_s"]
        totals["cold_s"] += sample["cold_s"]
        totals["warm_s"] += sample["warm_s"]
        # Each subject session streams the whole container once.
        totals["session_plaintext"] += sample["plaintext_bytes"] * sample["sessions"]
    return {
        "points": points,
        "totals": totals,
        "publish_mbps": sum(p["plaintext_bytes"] for p in points)
        / totals["publish_s"] / 1e6,
        "cold_session_mbps": totals["session_plaintext"] / totals["cold_s"] / 1e6,
        "warm_session_mbps": totals["session_plaintext"] / totals["warm_s"] / 1e6,
        "calibration_s": calibrate(),
    }


_TITLE = "E14: end-to-end wall-clock throughput (real time; E1 corpus)"
_HEADERS = [
    "patients", "mode", "plaintext B",
    "publish (s)", "cold session (s)", "warm session (s)", "cold MB/s",
]


def _table(result: dict):
    rows = []
    for point in result["points"]:
        rows.append([
            point["patients"],
            point["mode"],
            point["plaintext_bytes"],
            point["publish_s"],
            point["cold_s"],
            point["warm_s"],
            point["plaintext_bytes"] * point["sessions"] / point["cold_s"] / 1e6,
        ])
    totals = result["totals"]
    rows.append([
        "TOTAL", "", totals["session_plaintext"],
        totals["publish_s"], totals["cold_s"], totals["warm_s"],
        result["cold_session_mbps"],
    ])
    return _TITLE, _HEADERS, rows


def run_experiment(quick: bool = False):
    return _table(measure_corpus(quick=quick))


# -- per-stage cProfile attribution ------------------------------------------

_STAGE_PREFIXES = [
    ("crypto", "repro/crypto/"),
    ("xmlstream", "repro/xmlstream/"),
    ("skipindex", "repro/skipindex/"),
    ("core (evaluator)", "repro/core/"),
    ("smartcard", "repro/smartcard/"),
    ("terminal/dsp", "repro/terminal/"),
]


def profile_session() -> None:
    """cProfile one representative cold session; print stage shares."""
    events = list(tree_to_events(hospital(n_patients=20)))
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(subject) for subject in SUBJECTS]
    document = owner.publish(
        events, hospital_rules(), to=readers, doc_id="bench-doc",
        chunk_size=CHUNK,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    for reader in readers:
        _pull(reader, document)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stage_seconds: dict[str, float] = {label: 0.0 for label, _ in _STAGE_PREFIXES}
    other = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        for label, prefix in _STAGE_PREFIXES:
            if prefix in filename.replace("\\", "/"):
                stage_seconds[label] += tottime
                break
        else:
            other += tottime
    print("\nper-stage attribution (tottime under cProfile):")
    total = sum(stage_seconds.values()) + other
    for label, seconds in sorted(stage_seconds.items(), key=lambda kv: -kv[1]):
        print(f"  {label:18s} {seconds:7.3f}s  {seconds / total * 100:5.1f}%")
    print(f"  {'other':18s} {other:7.3f}s  {other / total * 100:5.1f}%")
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(25)
    print("\ntop 25 by cumulative time:")
    print(stream.getvalue())


def check_regression(result: dict, committed_path: str) -> int:
    """Compare a quick run against the committed baseline (CI gate)."""
    with open(committed_path) as handle:
        committed = json.load(handle)
    reference = committed["current"]["quick"]
    # Normalize by the calibration loop: a machine that runs the spin
    # loop 2x slower is expected to run the bench 2x slower too.
    machine_factor = result["calibration_s"] / reference["calibration_s"]
    failures = []
    for metric in ("cold_session_mbps", "warm_session_mbps", "publish_mbps"):
        measured = result[metric] * machine_factor
        floor = reference[metric] * CHECK_THRESHOLD
        status = "ok" if measured >= floor else "REGRESSION"
        print(
            f"{metric}: measured {result[metric]:.3f} MB/s "
            f"(calibrated {measured:.3f}) vs committed {reference[metric]:.3f}, "
            f"floor {floor:.3f} -> {status}"
        )
        if measured < floor:
            failures.append(metric)
    if failures:
        print(f"throughput regression >30% in: {', '.join(failures)}")
        return 1
    return 0


def test_e14_wallclock(benchmark):
    benchmark.pedantic(
        lambda: _measure_point(5, IndexMode.RECURSIVE, 1), rounds=3, iterations=1
    )
    emit(*run_experiment(quick=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile a representative session and print stage shares",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a committed BENCH_E14.json; exit 1 on "
        f">{int((1 - CHECK_THRESHOLD) * 100)}%% calibrated regression",
    )
    args = parser.parse_args()
    if args.profile:
        profile_session()
        return 0
    result = measure_corpus(quick=args.quick)
    emit(*_table(result))
    print(
        f"\npublish {result['publish_mbps']:.3f} MB/s | "
        f"cold session {result['cold_session_mbps']:.3f} MB/s | "
        f"warm session {result['warm_session_mbps']:.3f} MB/s | "
        f"calibration {result['calibration_s'] * 1000:.1f} ms"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.check:
        return check_regression(result, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
