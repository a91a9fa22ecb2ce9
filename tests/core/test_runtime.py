"""Unit tests for the evaluation engine (the product machine)."""

import pytest

from repro.core.conditions import Tristate
from repro.core.nfa import compile_path
from repro.core.product import ProductEngine
from repro.xmlstream.parser import parse_string
from repro.xmlstream.events import OpenEvent, ValueEvent
from repro.xpathlib.parser import parse_path


class _Collector:
    def __init__(self):
        self.matches = []

    def on_match(self, conditions):
        self.matches.append(conditions)


def _run(path_text: str, document: str):
    """Run one automaton over a document; returns (collector, engine,
    match node order) where matches are recorded per open element."""
    engine = ProductEngine()
    collector = _Collector()
    engine.add_automaton(compile_path(parse_path(path_text)), collector)
    per_node = []
    depth_path = []
    for event in parse_string(document):
        if isinstance(event, OpenEvent):
            before = len(collector.matches)
            engine.open(event.tag)
            depth_path.append(event.tag)
            if len(collector.matches) > before:
                per_node.append(tuple(depth_path))
        elif isinstance(event, ValueEvent):
            engine.value(event.text)
        else:
            engine.close()
            depth_path.pop()
    return collector, engine, per_node


def test_child_chain_matches():
    collector, _, nodes = _run("/a/b", "<a><b/><c><b/></c></a>")
    assert nodes == [("a", "b")]


def test_descendant_matches_all_depths():
    collector, _, nodes = _run("//b", "<a><b><b/></b><c><b/></c></a>")
    assert len(nodes) == 3


def test_descendant_matches_root():
    collector, _, nodes = _run("//a", "<a><x/></a>")
    assert nodes == [("a",)]


def test_wildcard():
    collector, _, nodes = _run("/a/*", "<a><b/><c/></a>")
    assert len(nodes) == 2


def test_double_descendant_requires_two_levels():
    collector, _, nodes = _run("//a//a", "<a><a/></a>")
    assert nodes == [("a", "a")]


def test_existence_predicate_definite_when_seen_before():
    collector, _, __ = _run("//b[c]/d", "<r><b><c/><d/></b></r>")
    assert len(collector.matches) == 1
    # Predicate already satisfied: the guard set resolves TRUE.
    assert all(
        c.state is Tristate.TRUE for c in collector.matches[0]
    )


def test_existence_predicate_pending_when_after():
    engine = ProductEngine()
    collector = _Collector()
    engine.add_automaton(compile_path(parse_path("//b[c]/d")), collector)
    engine.open("r")
    engine.open("b")
    engine.open("d")  # match reported here, pending on [c]
    assert len(collector.matches) == 1
    (guards,) = collector.matches
    assert any(c.state is Tristate.UNKNOWN for c in guards)
    engine.close()  # d
    engine.open("c")  # satisfies the predicate
    engine.close()
    assert all(c.state is Tristate.TRUE for c in guards)


def test_predicate_completing_at_the_same_event_resolves_first():
    """The [b] sub-automaton and the /b spine step match the same node:
    the predicate's completion lands before the guarded token advances,
    so the match is reported unguarded rather than pending."""
    collector, _, nodes = _run("//a[b]/b", "<r><a><b/></a></r>")
    assert nodes == [("r", "a", "b")]
    assert collector.matches == [frozenset()]


def test_predicate_fails_at_context_close():
    engine = ProductEngine()
    collector = _Collector()
    engine.add_automaton(compile_path(parse_path("//b[c]/d")), collector)
    engine.open("r")
    engine.open("b")
    engine.open("d")
    engine.close()
    engine.close()  # b closes without c: condition fails
    (guards,) = collector.matches
    assert any(c.state is Tristate.FALSE for c in guards)


def test_value_comparison_fires_at_close():
    collector, _, __ = _run(
        '//p[q = "5"]/r', "<s><p><q>5</q><r/></p><p><q>7</q><r/></p></s>"
    )
    assert len(collector.matches) == 2
    resolved = [
        all(c.state is Tristate.TRUE for c in guards)
        for guards in collector.matches
    ]
    failed = [
        any(c.state is Tristate.FALSE for c in guards)
        for guards in collector.matches
    ]
    assert resolved.count(True) == 1
    assert failed.count(True) == 1


def test_split_text_concatenated_for_comparison():
    engine = ProductEngine()
    collector = _Collector()
    engine.add_automaton(compile_path(parse_path('//a[. = "xy"]/b')), collector)
    engine.open("a")
    engine.value("x")
    engine.open("b")
    engine.close()
    engine.value("y")
    engine.close()
    (guards,) = collector.matches
    assert all(c.state is Tristate.TRUE for c in guards)


def test_close_without_open_rejected():
    engine = ProductEngine()
    with pytest.raises(RuntimeError):
        engine.close()


def test_add_automaton_after_start_rejected():
    engine = ProductEngine()
    engine.open("a")
    with pytest.raises(RuntimeError):
        engine.add_automaton(compile_path(parse_path("/a")), _Collector())


def test_can_complete_inside_uses_labels():
    engine = ProductEngine()
    engine.add_automaton(compile_path(parse_path("//x/y")), _Collector())
    engine.open("r")
    assert engine.can_complete_inside(frozenset({"x", "y"}))
    assert not engine.can_complete_inside(frozenset({"x"}))
    assert not engine.can_complete_inside(frozenset())


def test_can_complete_inside_wildcard_never_filtered():
    engine = ProductEngine()
    engine.add_automaton(compile_path(parse_path("//*")), _Collector())
    engine.open("r")
    assert engine.can_complete_inside(frozenset())


def test_watchers_block_skipping():
    engine = ProductEngine()
    engine.add_automaton(
        compile_path(parse_path('//a[. = "x"]/b')), _Collector()
    )
    engine.open("a")
    assert engine.has_watchers_on_top()


def test_backtracking_frees_tokens():
    engine = ProductEngine()
    engine.add_automaton(compile_path(parse_path("//a/b")), _Collector())
    engine.open("a")
    inside = engine.active_token_count()
    engine.open("x")
    engine.close()
    engine.close()
    assert engine.active_token_count() < inside


def test_token_dedupe_bounds_blowup():
    """//a//a on a deep chain of a's must not explode exponentially."""
    engine = ProductEngine()
    engine.add_automaton(compile_path(parse_path("//a//a")), _Collector())
    for __ in range(12):
        engine.open("a")
    # Without dedupe the frame would hold ~2^12 tokens.
    assert engine.active_token_count() < 100
