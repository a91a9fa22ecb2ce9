"""Differential guard for the wall-clock optimizations (PR 3).

The hot-path rewrite (batched crypto, scanner, token engine, decoder)
must be *observationally invisible*: authorized views byte-identical
and the modeled :class:`~repro.smartcard.resources.SimClock` totals
exactly unchanged.  ``tests/goldens/e14_parity.json`` was generated by
running the pre-optimization revision (commit ``8f1df44``) over a fixed
corpus of pull sessions; this test replays the same sessions on the
current code and compares every observable -- view hashes, fragment
hashes, clock totals and per-component breakdowns (as exact floats),
card cycles, byte counters, APDU counts and RAM high-water.

Not every value is still 8f1df44's: when the card CPU became an
integer cycle ledger, each session's ``card_cpu`` seconds (and the
``clock_total`` that sums them) were re-pinned to the correctly
rounded ``card_cycles / cpu_hz``, a few ULPs from the old per-item
float sum.  Every other value, the cycle counts included, is the
original.
"""

import hashlib
import json
import pathlib

import pytest

from repro.bench.harness import PullSetup, run_pull_session
from repro.skipindex.encoder import IndexMode
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.resources import CostModel
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent.parent / "goldens" / "e14_parity.json").read_text()
)


def _run(config: dict, chunk_size: int):
    events = list(tree_to_events(hospital(n_patients=config["patients"])))
    return run_pull_session(
        PullSetup(
            events=events,
            rules=hospital_rules(),
            subject=config["subject"],
            query=config["query"],
            index_mode=IndexMode[config["mode"]],
            strategy=PendingStrategy[config["strategy"]],
            chunk_size=chunk_size,
        )
    )


@pytest.mark.parametrize(
    "golden",
    GOLDENS["sessions"],
    ids=[
        f"{g['config']['subject']}-{g['config']['mode']}-{g['config']['strategy']}"
        for g in GOLDENS["sessions"]
    ],
)
def test_session_parity_with_pre_optimization_revision(golden):
    outcome = _run(golden["config"], GOLDENS["chunk_size"])
    metrics = outcome.metrics

    # Views byte-identical.
    assert (
        hashlib.sha256(outcome.xml.encode()).hexdigest() == golden["xml_sha256"]
    ), "authorized view changed"
    assert len(outcome.xml.encode()) == golden["xml_bytes"]
    fragments = "".join(f"{i}:{t}" for i, t in outcome.fragments)
    assert (
        hashlib.sha256(fragments.encode()).hexdigest()
        == golden["fragments_sha256"]
    ), "refetch fragments changed"

    # SimClock totals exactly unchanged (floats compared bit-for-bit).
    assert metrics.clock.total() == golden["clock_total"]
    assert metrics.clock.breakdown() == golden["clock_breakdown"]
    assert metrics.card_cycles == golden["card_cycles"]
    hz = CostModel().cpu_hz
    assert golden["clock_breakdown"]["card_cpu"] == golden["card_cycles"] / hz

    # Byte- and unit-level accounting unchanged.
    assert metrics.bytes_decrypted == golden["bytes_decrypted"]
    assert metrics.bytes_skipped == golden["bytes_skipped"]
    assert metrics.output_bytes == golden["output_bytes"]
    assert metrics.apdu_count == golden["apdu_count"]
    assert metrics.ram_high_water == golden["ram_high_water"]
    assert outcome.container_bytes == golden["container_bytes"]
    assert outcome.plaintext_bytes == golden["plaintext_bytes"]
