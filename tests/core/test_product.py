"""Differential testing: the product machine vs. the tree-based oracle.

The product machine is the only evaluation engine, predicates included.
On any document and any rule set of the supported fragment its match
sets must equal the reference XPath evaluator's node sets, and the
views it drives -- through :class:`AccessController` and through a
shared :class:`MultiSubjectEvaluator` pass of one or three lanes --
must equal :func:`repro.core.reference.reference_view`.  The E10
pending workload (each ``[flag]`` resolves after the body it guards)
pins the late-predicate path explicitly.  The interning and memo tests
bound the machine's caches on predicate corpora; the last tests pin
that the sessions of one compiled policy share its tables and that
those tables stop growing at their entry limit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core import authorized_view, reference_view
from repro.core.compiled import compile_policy
from repro.core.conditions import Condition, Tristate, conjunction_state
from repro.core.multicast import MultiSubjectEvaluator
from repro.core import product
from repro.core.evaluator import add_lane
from repro.core.product import ProductEngine
from repro.core.rules import AccessRule, RuleSet, Sign
from repro.core.runtime import EngineStats
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules
from repro.xmlstream.events import OpenEvent, ValueEvent
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import events_to_tree, tree_to_events
from repro.xmlstream.writer import write_string
from repro.xpathlib.evaluator import evaluate_path

from tests.strategies import elements, rule_sets


class _RecordingSink:
    """Captures (open-event index, automaton, guards) per match."""

    __slots__ = ("log", "clock", "slot")

    def __init__(self, log, clock, slot):
        self.log = log
        self.clock = clock
        self.slot = slot

    def on_match(self, conditions) -> None:
        self.log.append((self.clock[0], self.slot, conditions))


class _NullSink:
    __slots__ = ()

    def on_match(self, conditions) -> None:
        pass


def _pump(engine, events) -> None:
    for event in events:
        if isinstance(event, OpenEvent):
            engine.open(event.tag)
        elif isinstance(event, ValueEvent):
            engine.value(event.text)
        else:
            engine.close()


def _match_set(policy, events) -> set[tuple[int, int]]:
    """(open index, automaton) pairs whose match resolved TRUE."""
    engine = ProductEngine()
    log: list = []
    clock = [0]
    engine.add_policy(
        policy,
        [_RecordingSink(log, clock, slot) for slot in range(len(policy))],
    )
    for event in events:
        if isinstance(event, OpenEvent):
            engine.open(event.tag)
            clock[0] += 1
        elif isinstance(event, ValueEvent):
            engine.value(event.text)
        else:
            engine.close()
    # Every condition is final once the document closed.
    return {
        (index, slot)
        for index, slot, guards in log
        if conjunction_state(guards) is Tristate.TRUE
    }


@settings(max_examples=200, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_match_sets_identical(root, rules):
    """Each automaton matches exactly the reference node set."""
    policy = compile_policy(rules, "u", Sign.DENY)
    position = {id(node): index for index, node in enumerate(root.iter())}
    expected = {
        (position[id(node)], slot)
        for slot, rule in enumerate(rules)
        for node in evaluate_path(rule.object, root)
    }
    events = list(tree_to_events(root))
    assert _match_set(policy, events) == expected, (
        f"doc={write_string(events)!r} rules=\n{rules}"
    )


def _lane_texts(policy, lanes: int, events) -> list[str]:
    stats = EngineStats()
    views = MultiSubjectEvaluator([policy] * lanes, stats=stats).run(events)
    assert stats.events_pumped == stats.events == len(events)
    return [write_string(view) for view in views]


@settings(max_examples=150, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_views_identical_any_rules(root, rules):
    """AccessController and a 1-lane shared pass equal the oracle."""
    events = list(tree_to_events(root))
    expected = write_string(reference_view(root, rules, "u"))
    assert write_string(authorized_view(events, rules, "u")) == expected
    policy = compile_policy(rules, "u", Sign.DENY)
    assert _lane_texts(policy, 1, events) == [expected]


@settings(max_examples=150, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_multicast_views_identical_and_product_engaged(root, rules):
    """Three lanes sharing one policy each get the oracle's view."""
    events = list(tree_to_events(root))
    expected = write_string(reference_view(root, rules, "u"))
    policy = compile_policy(rules, "u", Sign.DENY)
    assert _lane_texts(policy, 3, events) == [expected] * 3


E10_RULES = RuleSet(
    [AccessRule.parse("+", "u", '//msg[flag = "keep"]/body', rule_id="E10")]
)


def _e10_document(payload: int, messages: int = 6) -> str:
    parts = ["<mail>"]
    for index in range(messages):
        flag = "keep" if index % 2 == 0 else "drop"
        parts.append(
            f"<msg><body>{'x' * payload}</body><flag>{flag}</flag></msg>"
        )
    parts.append("</mail>")
    return "".join(parts)


@pytest.mark.parametrize("payload", [40, 160, 640])
def test_e10_pending_workload_matches_oracle(payload):
    """Late predicates: every body is pending until its flag closes."""
    events = parse_string(_e10_document(payload))
    root = events_to_tree(events)
    expected = write_string(reference_view(root, E10_RULES, "u"))
    assert write_string(authorized_view(events, E10_RULES, "u")) == expected
    policy = compile_policy(E10_RULES, "u", Sign.DENY)
    assert _lane_texts(policy, 1, events) == [expected]
    assert _lane_texts(policy, 3, events) == [expected] * 3
    assert expected.count("<body>") == 3


@settings(max_examples=150, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_interning_is_bounded_and_memoized(root, rules):
    """Interned product states stay within the sound combinatorial
    bounds, and a second pass over the same document interns nothing."""
    policy = compile_policy(rules, "u", Sign.DENY)
    events = list(tree_to_events(root))
    stats = EngineStats()
    engine = ProductEngine(stats=stats)
    engine.add_policy(policy, [_NullSink()] * len(policy.automata))
    _pump(engine, events)
    first_pass = stats.product_states_interned
    _pump(engine, events)
    # Second pass hit only memoized transitions: nothing new interned.
    assert stats.product_states_interned == first_pass
    opens = 2 * sum(isinstance(event, OpenEvent) for event in events)
    bound = min(2 ** policy.state_count, 1 + opens)
    assert stats.product_states_interned <= bound


def _cache_keys(engine: ProductEngine):
    """Every key of every interning, transition, memo and reach cache."""
    for key, entry in engine._tables.intern.items():
        yield key
        for tag, transition in entry.transitions.items():
            yield tag
            yield from transition.memo
        yield from entry.reach_memo


def _flatten(value):
    if isinstance(value, (tuple, frozenset, list, set)):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def test_memo_is_bounded_on_a_long_predicate_document():
    """Pumping a predicate document twice adds no state and no memo
    entry the second time; no per-node condition ever keys a cache."""
    rules = parental_rules("kid", max_rating="PG13")
    policy = compile_policy(rules, "kid", Sign.DENY)
    events = list(tree_to_events(video_catalog(60, payload=20)))
    stats = EngineStats()
    engine = ProductEngine(stats=stats)
    engine.add_policy(policy, [_NullSink()] * len(policy.automata))
    tags = [frozenset(), frozenset({"meta", "rating"}), frozenset({"payload"})]

    def run_pass() -> None:
        for event in events:
            if isinstance(event, OpenEvent):
                engine.open(event.tag)
                for inside in tags:
                    engine.can_complete_inside(inside)
            elif isinstance(event, ValueEvent):
                engine.value(event.text)
            else:
                engine.close()

    def sizes() -> tuple[int, int, int]:
        entries = engine._tables.intern.values()
        transitions = [t for e in entries for t in e.transitions.values()]
        return (
            len(engine._tables.intern),
            len(transitions),
            sum(len(t.memo) for t in transitions),
        )

    run_pass()
    first = sizes()
    assert stats.conditions_created >= 60  # predicates did real work
    assert first[2] > 0  # ...and unguarded frames still hit the memo
    run_pass()
    assert sizes() == first
    assert stats.product_states_interned == first[0]
    assert not any(
        isinstance(item, Condition)
        for key in _cache_keys(engine)
        for item in _flatten(key)
    )


def test_sessions_of_one_policy_share_its_tables():
    """Engines running one compiled policy alone adopt the tables the
    policy owns: a later session interns no state, yet reports the same
    matches and modeled counters.  Other registrations (two lanes, an
    extra automaton) solve tables of their own."""
    policy = compile_policy(parental_rules("kid", "PG"), "kid", Sign.DENY)
    events = list(tree_to_events(video_catalog(8, payload=10)))
    modeled = ("events", "token_checks", "token_advances",
               "conditions_created", "watcher_bytes")
    runs = []
    for lanes in (1, 1, 2):
        stats = EngineStats()
        engine = ProductEngine(stats=stats)
        log: list = []
        for _ in range(lanes):
            engine.add_policy(
                policy,
                [_RecordingSink(log, [0], slot) for slot in range(len(policy))],
            )
        _pump(engine, events)
        runs.append((engine, stats, [
            (slot, conjunction_state(guards)) for __, slot, guards in log
        ]))
    (first, cold, matches), (second, warm, again), (third, __, ___) = runs
    assert first._tables is second._tables is policy.tables
    assert third._tables is not policy.tables
    assert cold.product_states_interned > 0
    assert warm.product_states_interned == 0
    assert again == matches
    assert [getattr(warm, n) for n in modeled] == [
        getattr(cold, n) for n in modeled
    ]
    lane = ProductEngine()
    add_lane(lane, policy)
    assert lane._tables is policy.tables
    extended = ProductEngine()
    extended.add_policy(policy, [_NullSink()] * len(policy))
    extended.add_automaton(policy.automata[0], _NullSink())
    _pump(extended, events)
    assert extended._tables is not policy.tables


def _stored(tables) -> int:
    """Entries actually held by one set of tables."""
    held = 0
    for entry in tables.intern.values():
        held += 1 + len(entry.transitions) + len(entry.reach_memo)
        held += sum(len(t.memo) for t in entry.transitions.values())
    return held


def _chain(depth: int) -> str:
    return "<a><b/>" * depth + "x" + "</a>" * depth


def test_tables_stop_growing_at_the_limit(monkeypatch):
    """Deep self-overlapping documents (``//a//a`` keys a memo entry by
    every count vector) cannot grow a policy's tables past
    TABLE_LIMIT, however many sessions run; the steps they can no
    longer cache are computed uncached, with the oracle's matches."""
    limit = 40
    monkeypatch.setattr(product, "TABLE_LIMIT", limit)
    rules = RuleSet([
        AccessRule.parse("+", "u", "//a//a", rule_id="r1"),
        AccessRule.parse("+", "u", "//a/b", rule_id="r2"),
    ])
    policy = compile_policy(rules, "u", Sign.DENY)
    for depth in (4, 8, 16, 32, 16, 32):
        events = parse_string(_chain(depth))
        root = events_to_tree(events)
        position = {id(node): index for index, node in enumerate(root.iter())}
        expected = {
            (position[id(node)], slot)
            for slot, rule in enumerate(rules)
            for node in evaluate_path(rule.object, root)
        }
        assert _match_set(policy, events) == expected
        assert _stored(policy.tables) == policy.tables.entries <= limit
    assert policy.tables.entries == limit
