"""Golden of E20's exact blocks: the seeded counts of each workload.

Every E20 run sums seeded counts over its first 50 operations
(``EXACT_OPS`` in ``benchmarks/e20/measure.py``): DSP requests, APDUs,
wraps, compiles and the modeled ``card_cpu``, ``link``, ``network``
and ``eeprom`` seconds.  The operation order is seeded, so these sums
repeat exactly, floats included.  This test pins them for the four
workloads at seeds 1 and 2, so a change that moves any of them shows
here and not only in a paired benchmark run.

Each case runs the benchmark's own ``measure`` (one set-up, no time
budget, so it stops as soon as the first 50 operations are in) in a
process of its own: ``compile_call_count()`` and ``wrap_call_count()``
are process-global, and a fresh process is what the benchmark runs in.
One helper process imports the benchmark once and forks a child per
case, so the cases share the import and nothing else.  The test only
imports from ``benchmarks/e20``.

Regenerate (only when a change is meant to move these counts, in a
commit of its own)::

    PYTHONPATH=src python -m tests.integration.test_e20_exact
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
E20_DIR = ROOT / "benchmarks" / "e20"
GOLDEN_PATH = ROOT / "tests" / "goldens" / "e20_exact.json"

#: Slowest set-up first, so the last cases to start are short ones.
WORKLOADS = ("served", "pull_cached", "pull", "feed")
SEEDS = (1, 2)
CASES = [f"{workload}/{seed}" for workload in WORKLOADS for seed in SEEDS]
#: Cases run at once; each is one small process (``served`` adds its
#: DSP child).
WORKERS = 2

#: The helper: import ``measure`` once, then fork one child per case,
#: keeping ``WORKERS`` running; print ``{case: {"errors", "exact"}}``.
#: A child that dies leaves its pipe at end of file, so ``recv``
#: raises and the helper exits non-zero.
_HELPER = """
import json, multiprocessing, sys
from multiprocessing.connection import wait
sys.path.insert(0, sys.argv[1])
from measure import measure

def child(case, conn):
    workload, seed = case.split("/")
    record = measure(workload, int(seed), 0.0, False, 1, 0)
    conn.send({"errors": record["errors"], "exact": record["exact"]})
    conn.close()

context = multiprocessing.get_context("fork")
pending, workers = sys.argv[3:], int(sys.argv[2])
running, results = {}, {}
while pending or running:
    while pending and len(running) < workers:
        case = pending.pop(0)
        receive, send = context.Pipe(duplex=False)
        process = context.Process(target=child, args=(case, send))
        process.start()
        send.close()
        running[receive] = (case, process)
    for receive in wait(list(running)):
        case, process = running.pop(receive)
        results[case] = receive.recv()
        process.join()
print(json.dumps(results))
"""


@functools.lru_cache(maxsize=1)
def run_all() -> dict[str, dict]:
    """Every case's run: its errors and its exact block."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", _HELPER, str(E20_DIR), str(WORKERS), *CASES],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"E20 exact runs failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", CASES)
def test_exact_block_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    run = run_all()[case]
    assert run["errors"] == []
    assert run["exact"]["ops"] == 50
    assert run["exact"] == golden[case]


if __name__ == "__main__":
    results = run_all()
    failed = {case: run["errors"] for case, run in results.items() if run["errors"]}
    if failed:
        raise SystemExit(f"runs with errors, golden not written: {failed}")
    exact = {case: run["exact"] for case, run in results.items()}
    GOLDEN_PATH.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
