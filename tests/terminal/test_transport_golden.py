"""Transport goldens: the windowed, batched and push chunk transports.

``tests/goldens/e14_parity.json`` pins the sequential pull transport
only, and the channel and feed clock goldens run ``apdu_batch=1``.
This module pins the others: pulls under the default, an 8-chunk
prefetch window and a window-4/batch-3 plan, each under both pending
strategies; and a channel broadcast at ``apdu_batch`` 1 and 4 with a
late joiner tuning in mid-cycle.  Each case records the authorized
views (sha256), the modeled SimClock as exact floats with the card
cycles behind its ``card_cpu`` (exactly ``card_cycles / cpu_hz``), and
the link, chunk, DSP and refetch counters, so a transport refactor that
moves a single APDU, byte or wasted chunk shows up as a diff.

Regenerate (only when the transport is meant to change, in a commit of
its own that states the delta)::

    PYTHONPATH=src python -m tests.terminal.test_transport_golden
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.bench.harness import PullSetup, run_pull_session
from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.dissemination import container_frames
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.resources import CostModel, SessionMetrics
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.parser import parse_string

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "goldens" / "transport.json"

#: The per-session counters every case records.
COUNTERS = (
    "apdu_count",
    "bytes_to_card",
    "bytes_from_card",
    "chunks_sent",
    "chunks_skipped",
    "chunks_wasted",
    "bytes_wasted",
    "dsp_requests",
    "refetch_count",
    "refetch_bytes",
)

PULL_POLICIES = {
    "default": TransferPolicy(),
    "windowed8": TransferPolicy.windowed(8),
    "window4_batch3": TransferPolicy(window=4, apdu_batch=3),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _counters(metrics: SessionMetrics) -> dict[str, int]:
    return {name: getattr(metrics, name) for name in COUNTERS}


def _mail(messages: int = 8) -> str:
    """Mail whose ``[flag]`` resolves after the body it guards, so the
    bodies are pending subtrees; every third message is off-query."""
    parts = ["<mail>"]
    for index in range(messages):
        flag = "keep" if index % 2 == 0 else "drop"
        kind = "memo" if index % 3 == 2 else "msg"
        parts.append(
            f"<{kind}><body>{'x' * 150}{index}</body><flag>{flag}</flag>"
            f"</{kind}>"
        )
    parts.append("</mail>")
    return "".join(parts)


MAIL_RULES = RuleSet(
    [
        AccessRule.parse("+", "u", '//*[flag = "keep"]/body', rule_id="keep"),
        AccessRule.parse("+", "u", "//flag", rule_id="flags"),
    ]
)


def _pull(policy: str, strategy: str) -> dict:
    outcome = run_pull_session(
        PullSetup(
            events=list(parse_string(_mail())),
            rules=MAIL_RULES,
            subject="u",
            query="//msg",
            strategy=PendingStrategy[strategy],
            chunk_size=64,
            transfer=PULL_POLICIES[policy],
        )
    )
    fragments = "".join(f"{i}:{t}" for i, t in outcome.fragments)
    return {
        "view_sha256": _sha(outcome.xml),
        "fragments_sha256": _sha(fragments),
        "clock": outcome.metrics.clock.snapshot(),
        "card_cycles": outcome.metrics.card_cycles,
        **_counters(outcome.metrics),
    }


def _channel(apdu_batch: int) -> dict:
    community = Community()
    owner = community.enroll("owner")
    members = [
        community.enroll(name, strict_memory=False) for name in ("ann", "ben")
    ]
    body = "".join(
        f"<show><title>t{i}</title><adult>{'x' * 40}{i}</adult></show>"
        for i in range(12)
    )
    doc = owner.publish(
        f"<tv>{body}</tv>",
        [("+", "viewers", "/tv"), ("-", "viewers", "//adult")],
        to=members,
        doc_id="tv",
        chunk_size=32,
    )
    channel = community.channel(doc)
    transfer = TransferPolicy(window=apdu_batch, apdu_batch=apdu_batch)
    viewers = frozenset({"viewers"})
    handles = {
        member.name: channel.subscribe(member, groups=viewers, transfer=transfer)
        for member in members
    }
    channel.broadcast()
    latecomer = community.enroll("late", strict_memory=False)
    doc.grant(latecomer)
    handles["late"] = channel.subscribe(
        latecomer, groups=viewers, transfer=transfer
    )
    # The latecomer tunes in during the last three frames of a cycle.
    channel.broadcast_channel.send(container_frames(doc.container)[-3:])
    channel.broadcast()
    sessions = {}
    for name, handle in handles.items():
        handle.require_ok()
        sessions[name] = {
            "view_sha256": _sha(handle.view),
            "frames_missed": handle.frames_missed,
            **_counters(handle.metrics),
        }
    return {
        "clock": community.clock.snapshot(),
        "card_cycles": sum(
            member.card.soe.cycles_used for member in community.members
        ),
        "sessions": sessions,
    }


CASES = {
    **{
        f"pull-{policy}-{strategy}": (
            lambda p=policy, s=strategy: _pull(p, s)
        )
        for policy in PULL_POLICIES
        for strategy in ("BUFFER", "REFETCH")
    },
    "channel-batch1": lambda: _channel(1),
    "channel-batch4": lambda: _channel(4),
}


def _goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_transport_matches_golden(name):
    assert CASES[name]() == _goldens()[name]


def test_golden_card_cpu_is_card_cycles_over_the_clock_rate():
    hz = CostModel().cpu_hz
    for golden in _goldens().values():
        assert golden["clock"]["card_cpu"] == golden["card_cycles"] / hz


def test_goldens_exercise_every_transport_feature():
    """The pinned cases are not degenerate: speculation wastes chunks,
    the skip index saves some, REFETCH replays subtrees, batching cuts
    APDUs and the late joiner really missed frames."""
    goldens = _goldens()
    assert goldens["pull-windowed8-BUFFER"]["chunks_wasted"] > 0
    assert goldens["pull-default-BUFFER"]["chunks_skipped"] > 0
    assert all(
        goldens[f"pull-{policy}-REFETCH"]["refetch_count"] > 0
        for policy in PULL_POLICIES
    )
    assert (
        goldens["pull-window4_batch3-BUFFER"]["apdu_count"]
        < goldens["pull-windowed8-BUFFER"]["apdu_count"]
    )
    batch1 = goldens["channel-batch1"]["sessions"]
    batch4 = goldens["channel-batch4"]["sessions"]
    assert batch1["late"]["frames_missed"] == 3
    assert batch1["ann"]["chunks_skipped"] > 0
    assert batch4["ann"]["apdu_count"] < batch1["ann"]["apdu_count"]
    assert batch4["ann"]["view_sha256"] == batch1["ann"]["view_sha256"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: run() for name, run in sorted(CASES.items())},
                   indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
