"""Counter-level goldens for predicate-carrying sessions.

Every other golden in the suite pins predicate-free policies.  This
module pins the sessions where pending predicates do real work: the E10
late-``[flag]`` mail document under both pending strategies, the
parental-rating rules over a segment stream, the two E20 feed tiers
that go pending (kids: a rating-predicated permit under default deny;
family: the whole stream less R-rated segments), the collaborative
agenda policy, and a three-lane shared-pass evaluation of one predicate
policy.
Each case records its authorized view (sha256), the modeled SimClock
(total and per-component breakdown, as exact floats; ``card_cpu`` is
exactly ``card_cycles / cpu_hz``), card cycles, RAM
high-water, the pending-buffer peak E10 reports
(``max_pending_bytes``), skipped bytes, APDU count and the five modeled
:class:`~repro.core.runtime.EngineStats` counters, so any change to the
evaluation engine that moves a single token, condition or watcher shows
up as a counter diff.

Regenerate (only when a modeled cost is meant to change, in a commit of
its own that states the per-counter delta)::

    PYTHONPATH=src python -m tests.core.test_predicate_parity
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.community import Community
from repro.core.compiled import compile_policy
from repro.core.multicast import MultiSubjectEvaluator
from repro.core.rules import AccessRule, RuleSet, Sign
from repro.core.runtime import EngineStats
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.resources import CostModel
from repro.workloads.docgen import agenda, video_catalog
from repro.workloads.rulegen import agenda_rules, parental_rules
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "goldens" / "predicate_parity.json"
)

#: The five EngineStats counters the card's cycle model charges.
MODELED_COUNTERS = (
    "events",
    "token_checks",
    "token_advances",
    "conditions_created",
    "watcher_bytes",
)

E10_RULES = RuleSet(
    [AccessRule.parse("+", "u", '//msg[flag = "keep"]/body', rule_id="E10")]
)
AGENDA_MEMBERS = ["alice", "bruno", "carla", "deng"]
#: The E20 ``feed`` workload's kids and family tiers, as plain rules.
KIDS_TIER_RULES = RuleSet(
    [AccessRule.parse("+", "kid", '//segment[meta/rating = "G"]', rule_id="K0")]
)
FAMILY_RULES = RuleSet([
    AccessRule.parse("+", "family", "/stream", rule_id="F0"),
    AccessRule.parse("-", "family", '//segment[meta/rating = "R"]', rule_id="F1"),
])


def _e10_document(payload: int = 160, messages: int = 6) -> str:
    """The E10 mail document: each ``[flag]`` resolves after its body."""
    parts = ["<mail>"]
    for index in range(messages):
        flag = "keep" if index % 2 == 0 else "drop"
        parts.append(
            f"<msg><body>{'x' * payload}</body><flag>{flag}</flag></msg>"
        )
    parts.append("</mail>")
    return "".join(parts)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _counters(stats: EngineStats) -> dict[str, int]:
    return {name: getattr(stats, name) for name in MODELED_COUNTERS}


def _card_session(
    events,
    rules: RuleSet,
    subject: str,
    strategy: PendingStrategy,
    query: str | None = None,
    chunk_size: int = 64,
) -> dict:
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll(subject, ram_quota=None, strict_memory=False)
    document = owner.publish(
        list(events), rules, [reader], doc_id="parity-doc", chunk_size=chunk_size
    )
    with reader.open(document) as session:
        stream = session.query(query, strategy=strategy)
        pieces = stream.pieces
        metrics = stream.metrics
    view = "".join(p.text for p in pieces if p.kind == "view")
    fragments = "".join(
        f"{p.entry_id}:{p.text}" for p in pieces if p.kind == "fragment"
    )
    stats = reader.card.applet.engine_stats
    return {
        "view_sha256": _sha(view),
        "fragments_sha256": _sha(fragments),
        "clock_total": metrics.clock.total(),
        "clock_breakdown": metrics.clock.breakdown(),
        "card_cycles": metrics.card_cycles,
        "ram_high_water": metrics.ram_high_water,
        "max_pending_bytes": metrics.max_pending_bytes,
        "bytes_skipped": metrics.bytes_skipped,
        "apdu_count": metrics.apdu_count,
        "engine": _counters(stats),
    }


def _multicast_session() -> dict:
    """Three lanes sharing one compiled predicate policy, one pass."""
    rules = parental_rules("kid", max_rating="PG")
    policy = compile_policy(rules, "kid", Sign.DENY)
    stats = EngineStats()
    evaluator = MultiSubjectEvaluator([policy, policy, policy], stats=stats)
    lanes = evaluator.run(tree_to_events(video_catalog(12, payload=40)))
    return {
        "view_sha256": [_sha(write_string(lane)) for lane in lanes],
        "engine": _counters(stats),
    }


CASES = {
    "e10-buffer": lambda: _card_session(
        parse_string(_e10_document()), E10_RULES, "u", PendingStrategy.BUFFER
    ),
    "e10-refetch": lambda: _card_session(
        parse_string(_e10_document()), E10_RULES, "u", PendingStrategy.REFETCH
    ),
    "parental-buffer": lambda: _card_session(
        tree_to_events(video_catalog(16, payload=60)),
        parental_rules("kid", max_rating="PG"),
        "kid",
        PendingStrategy.BUFFER,
    ),
    "parental-refetch": lambda: _card_session(
        tree_to_events(video_catalog(16, payload=60)),
        parental_rules("kid", max_rating="PG13"),
        "kid",
        PendingStrategy.REFETCH,
    ),
    # The two E20 feed tiers that go pending, as card sessions.
    "video-kids-tier": lambda: _card_session(
        tree_to_events(video_catalog(16)), KIDS_TIER_RULES, "kid", PendingStrategy.BUFFER
    ),
    "video-family": lambda: _card_session(
        tree_to_events(video_catalog(16)), FAMILY_RULES, "family", PendingStrategy.BUFFER
    ),
    "agenda-alice": lambda: _card_session(
        tree_to_events(agenda(n_members=4, events_per_member=4)),
        agenda_rules(AGENDA_MEMBERS),
        "alice",
        PendingStrategy.BUFFER,
    ),
    "agenda-bruno-query": lambda: _card_session(
        tree_to_events(agenda(n_members=4, events_per_member=4)),
        agenda_rules(AGENDA_MEMBERS),
        "bruno",
        PendingStrategy.BUFFER,
        query="//member/event",
    ),
    "multicast-3-lanes": _multicast_session,
}


def _goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_predicate_session_matches_golden(name):
    golden = _goldens()[name]
    observed = CASES[name]()
    # Views first: a view diff is a correctness bug, not a cost change.
    assert observed["view_sha256"] == golden["view_sha256"], "view changed"
    assert observed["engine"] == golden["engine"], "engine counters moved"
    for key, value in golden.items():
        assert observed[key] == value, f"{key} changed"


def test_golden_card_cpu_is_card_cycles_over_the_clock_rate():
    hz = CostModel().cpu_hz
    card_cases = [g for g in _goldens().values() if "card_cycles" in g]
    assert card_cases
    for golden in card_cases:
        assert golden["clock_breakdown"]["card_cpu"] == golden["card_cycles"] / hz


def test_goldens_cover_every_case():
    assert sorted(_goldens()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: run() for name, run in sorted(CASES.items())},
                   indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
