"""E16 -- per-event dispatch throughput of the product machine.

E14 measures the whole pipeline; E16 isolates the layer the product
machine (:mod:`repro.core.product`, the one evaluation engine) owns:
per-event evaluation dispatch.  All measurements are wall-clock
(``time.perf_counter``):

* **dispatch** -- pump every E1 hospital corpus document's event stream
  through the product machine (``add_policy`` API, counting sinks) at
  1/4/16 lanes.  A lane is one subscriber registering the same compiled
  policy with its own sinks.  Lanes sharing a policy share one product
  slot per automaton, so per-event work tracks *distinct automata*,
  not audience size: 16 lanes run at ~0.7x the 1-lane event rate.
  Every pass is cold: the product tables are solved inside the timed
  region.
* **predicate dispatch** -- the same pump over the video catalog under
  the parental-rating rules (``//segment[meta/rating = "G"]/*``...),
  where every segment instantiates conditions, predicate tokens and
  value watchers.  Reported, not gated.
* **multicast** -- a cold push-scenario session: one
  :class:`~repro.core.multicast.MultiSubjectEvaluator` evaluating the
  corpus for a community of 1/4/16 subscribers, reported as aggregate
  delivered-view MB/s.  Per-subscriber view materialization is
  irreducible O(lanes) work here, not engine dispatch.
* **end_to_end** -- cold card pull sessions (the E14 metric) under the
  sequential transfer policy and ``TransferPolicy.windowed(4)``, with
  the committed ``BENCH_E14.json`` numbers alongside for context.
  Engine dispatch is ~10% of a pull session's wall time, so Amdahl
  keeps dispatch gains from moving this much.

``--check`` gates CI on the *same-process* audience scaling of the
pure dispatch corpus: 16-lane kevents/s must stay at least
:data:`SCALING_FLOOR` of the 1-lane rate.  Both arms run in one
interpreter, so the ratio needs no machine calibration.  A product
machine that stopped sharing slots across lanes would fall to ~1/16.

Usage::

    python benchmarks/bench_e16_dispatch.py                # full corpus
    python benchmarks/bench_e16_dispatch.py --quick        # CI subset
    python benchmarks/bench_e16_dispatch.py --json out.json
    python benchmarks/bench_e16_dispatch.py --quick --check
"""

import argparse
import json
import sys
import time
from pathlib import Path

from _common import emit
from bench_e14_wallclock import CHUNK, SUBJECTS, calibrate

from repro.community import Community
from repro.core.compiled import compile_policy
from repro.core.product import ProductEngine
from repro.core.rules import Sign
from repro.core.runtime import EngineStats
from repro.core.multicast import MultiSubjectEvaluator
from repro.skipindex.encoder import IndexMode
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import hospital, video_catalog
from repro.workloads.rulegen import hospital_rules, parental_rules
from repro.xmlstream.events import OpenEvent, ValueEvent
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

FULL_PATIENTS = (5, 10, 20, 40)
QUICK_PATIENTS = (5, 10)
FULL_VIDEOS = (16, 40)
QUICK_VIDEOS = (16,)
FULL_LANES = (1, 4, 16)
QUICK_LANES = (1, 16)
PREDICATE_LANES = (1, 16)
FULL_E2E = [
    (patients, mode)
    for patients in FULL_PATIENTS
    for mode in (IndexMode.RECURSIVE, IndexMode.NONE)
]
QUICK_E2E = [(5, IndexMode.RECURSIVE), (10, IndexMode.RECURSIVE)]

#: CI gate (see ``check_scaling``): 16-lane dispatch kevents/s over the
#: 1-lane rate, same process, cold passes.  The committed full-corpus
#: ratio is 0.69 (BENCH_E16.json); seven ``--quick`` runs on a shared
#: 2-vCPU host measured 0.56-0.75.
SCALING_FLOOR = 0.5


class _CountingSink:
    """Match sink with no behavior -- isolates engine dispatch cost."""

    __slots__ = ("matches",)

    def __init__(self) -> None:
        self.matches = 0

    def on_match(self, conditions) -> None:
        self.matches += 1


def _corpus_events(patients_list) -> list[list]:
    return [
        list(tree_to_events(hospital(n_patients=n))) for n in patients_list
    ]


def _policies():
    rules = hospital_rules()
    return [
        compile_policy(rules, subject, Sign.DENY) for subject in SUBJECTS
    ]


def _predicate_policies():
    return [compile_policy(parental_rules("kid", "PG13"), "kid", Sign.DENY)]


def _video_events(videos_list) -> list[list]:
    return [list(tree_to_events(video_catalog(n))) for n in videos_list]


def _pump_corpus(corpus, policies, lanes: int) -> tuple[int, int]:
    """One timed pass: fresh engine per (document, policy) pair.

    Engines are built inside the timed region, so registration is
    paid per pass.  A 1-lane engine runs its policy alone and adopts
    the tables the policy owns, so it solves them on the pass's first
    document; a wider engine solves tables of its own per document.
    Returns ``(events_pumped, matches)``.
    """
    pumped = matches = 0
    for events in corpus:
        for policy in policies:
            engine = ProductEngine(stats=EngineStats())
            sinks = [_CountingSink() for _ in range(lanes)]
            for sink in sinks:
                engine.add_policy(policy, [sink] * len(policy.automata))
            for event in events:
                kind = type(event)
                if kind is OpenEvent:
                    engine.open(event.tag)
                elif kind is ValueEvent:
                    engine.value(event.text)
                else:
                    engine.close()
                pumped += 1
            matches += sum(sink.matches for sink in sinks)
    return pumped, matches


def _dispatch_points(corpus, make_policies, lanes_axis, repeats: int) -> list:
    """Best-of-``repeats`` kevents/s per audience size.

    Every pass compiles its policies afresh (outside the timed region),
    so every pass is cold: solving the product tables is timed, as in a
    card's first session under a newly compiled policy.  Repeats
    interleave the audience sizes, so a burst of host noise lands on
    every arm alike instead of skewing the lane ratio.
    """
    best = dict.fromkeys(lanes_axis, float("inf"))
    counts = {}
    for _ in range(repeats):
        for lanes in lanes_axis:
            policies = make_policies()
            start = time.perf_counter()
            counts[lanes] = _pump_corpus(corpus, policies, lanes)
            best[lanes] = min(best[lanes], time.perf_counter() - start)
    points = [
        {
            "lanes": lanes,
            "kevps": counts[lanes][0] / best[lanes] / 1e3,
            "events": counts[lanes][0],
            "matches": counts[lanes][1],
        }
        for lanes in lanes_axis
    ]
    for point in points:
        point["vs_one_lane"] = point["kevps"] / points[0]["kevps"]
    return points


def measure_dispatch(quick: bool = False) -> dict:
    """Event throughput at several audience sizes, pure and predicate."""
    repeats = 3 if quick else 5
    return {
        "points": _dispatch_points(
            _corpus_events(QUICK_PATIENTS if quick else FULL_PATIENTS),
            _policies,
            QUICK_LANES if quick else FULL_LANES,
            repeats,
        ),
        "predicate_points": _dispatch_points(
            _video_events(QUICK_VIDEOS if quick else FULL_VIDEOS),
            _predicate_policies,
            PREDICATE_LANES,
            repeats,
        ),
    }


def measure_multicast(quick: bool = False) -> dict:
    """Cold community sessions: aggregate delivered-view MB/s."""
    patients_list = QUICK_PATIENTS if quick else FULL_PATIENTS
    corpus = _corpus_events(patients_list)
    base_policies = _policies()
    repeats = 2 if quick else 3
    lanes_axis = QUICK_LANES if quick else FULL_LANES
    points = []
    for lanes in lanes_axis:
        # Round-robin the subjects across the audience: 16 lanes is 8
        # accountants + 8 doctors, each with a private delivery lane.
        audience = [base_policies[i % len(base_policies)] for i in range(lanes)]
        delivered = 0
        for events in corpus:
            evaluator = MultiSubjectEvaluator(audience)
            for view in evaluator.run(events):
                delivered += len(write_string(view).encode("utf-8"))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for events in corpus:
                MultiSubjectEvaluator(audience).run(events)
            best = min(best, time.perf_counter() - start)
        points.append({
            "lanes": lanes,
            "delivered_view_bytes": delivered,
            "mbps": delivered / best / 1e6,
        })
    return {"points": points}


def _measure_cold_sessions(
    corpus, transfer: "TransferPolicy | None", repeats: int
) -> dict:
    """E14-style cold pull sessions under one transfer policy."""
    rules = hospital_rules()
    points = []
    total_s = 0.0
    total_bytes = 0
    for patients, mode in corpus:
        events = list(tree_to_events(hospital(n_patients=patients)))
        best = None
        for _ in range(repeats):
            community = Community()
            owner = community.enroll("owner")
            readers = [community.enroll(subject) for subject in SUBJECTS]
            document = owner.publish(
                events, rules, to=readers, doc_id="bench-doc",
                index_mode=mode, chunk_size=CHUNK,
            )
            cold_s = 0.0
            for reader in readers:
                start = time.perf_counter()
                with reader.open(document, transfer=transfer) as session:
                    session.query().text()
                cold_s += time.perf_counter() - start
            plaintext = document.container.header.total_length
            if best is None or cold_s < best[0]:
                best = (cold_s, plaintext)
        points.append({
            "patients": patients,
            "mode": mode.name,
            "cold_s": best[0],
            "plaintext_bytes": best[1],
        })
        total_s += best[0]
        total_bytes += best[1] * len(SUBJECTS)
    return {
        "points": points,
        "cold_s": total_s,
        "session_plaintext": total_bytes,
        "cold_session_mbps": total_bytes / total_s / 1e6,
    }


def measure_end_to_end(quick: bool = False) -> dict:
    corpus = QUICK_E2E if quick else FULL_E2E
    repeats = 1 if quick else 2
    return {
        "sequential": _measure_cold_sessions(corpus, None, repeats),
        "windowed4": _measure_cold_sessions(
            corpus, TransferPolicy.windowed(4), repeats
        ),
    }


def _e14_reference() -> "dict | None":
    committed = Path(__file__).resolve().parent.parent / "BENCH_E14.json"
    if not committed.exists():
        return None
    with open(committed) as handle:
        data = json.load(handle)
    current = data["current"]["full"]
    return {
        "cold_session_mbps": current["cold_session_mbps"],
        "calibration_s": current["calibration_s"],
        "source": "BENCH_E14.json current.full (committed)",
    }


def measure_all(quick: bool = False) -> dict:
    result = {
        "experiment": "E16",
        "suite": "quick" if quick else "full",
        "dispatch": measure_dispatch(quick=quick),
        "multicast": measure_multicast(quick=quick),
        "end_to_end": measure_end_to_end(quick=quick),
        "calibration_s": calibrate(),
    }
    reference = _e14_reference()
    if reference is not None:
        factor = result["calibration_s"] / reference["calibration_s"]
        e2e = result["end_to_end"]
        reference["machine_factor"] = factor
        reference["speedup_sequential_calibrated"] = (
            e2e["sequential"]["cold_session_mbps"] * factor
            / reference["cold_session_mbps"]
        )
        reference["speedup_windowed4_calibrated"] = (
            e2e["windowed4"]["cold_session_mbps"] * factor
            / reference["cold_session_mbps"]
        )
        result["e14_reference"] = reference
    return result


_TITLE = "E16: per-event dispatch throughput (product machine)"
_HEADERS = ["measurement", "lanes", "value", "vs 1 lane"]


def _table(result: dict):
    rows = []
    for point in result["dispatch"]["points"]:
        rows.append([
            "dispatch, E1 (kev/s)", point["lanes"], point["kevps"],
            point["vs_one_lane"],
        ])
    for point in result["dispatch"]["predicate_points"]:
        rows.append([
            "dispatch, predicates (kev/s)", point["lanes"], point["kevps"],
            point["vs_one_lane"],
        ])
    for point in result["multicast"]["points"]:
        rows.append(["multicast (MB/s)", point["lanes"], point["mbps"], ""])
    e2e = result["end_to_end"]
    rows.append([
        "cold session (MB/s)", "seq",
        e2e["sequential"]["cold_session_mbps"], "",
    ])
    rows.append([
        "cold session (MB/s)", "w4",
        e2e["windowed4"]["cold_session_mbps"], "",
    ])
    return _TITLE, _HEADERS, rows


def run_experiment(quick: bool = False):
    return _table(measure_all(quick=quick))


def check_scaling(result: dict) -> int:
    """CI gate: the widest audience keeps SCALING_FLOOR of 1-lane speed.

    Only the pure E1 corpus is gated; the predicate row is reported.
    """
    points = result["dispatch"]["points"]
    widest = points[-1]
    ok = widest["vs_one_lane"] >= SCALING_FLOOR
    print(
        f"dispatch lanes={widest['lanes']}: {widest['kevps']:.0f} kev/s = "
        f"{widest['vs_one_lane']:.2f}x the 1-lane rate "
        f"(floor {SCALING_FLOOR:.2f}x) -> {'ok' if ok else 'REGRESSION'}"
    )
    return 0 if ok else 1


def test_e16_dispatch(benchmark):
    corpus = _corpus_events((5,))
    policies = _policies()
    benchmark.pedantic(
        lambda: _pump_corpus(corpus, policies, 4),
        rounds=3, iterations=1,
    )
    emit(*run_experiment(quick=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke subset")
    parser.add_argument("--json", metavar="PATH", default=None)
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when 16-lane dispatch falls below "
        f"{SCALING_FLOOR}x the 1-lane event rate",
    )
    args = parser.parse_args()
    result = measure_all(quick=args.quick)
    emit(*_table(result))
    reference = result.get("e14_reference")
    if reference is not None:
        print(
            f"\nend-to-end vs committed E14 (calibrated): "
            f"sequential {reference['speedup_sequential_calibrated']:.2f}x, "
            f"windowed(4) {reference['speedup_windowed4_calibrated']:.2f}x "
            f"of {reference['cold_session_mbps']:.3f} MB/s"
        )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    if args.check:
        return check_scaling(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
