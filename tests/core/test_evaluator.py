"""Unit tests for the lanes and the decision stack they feed: one
compiled policy's matches, folded into the delivery records."""

import gc

import pytest

from repro.core.compiled import PolicyRegistry, compile_policy, compile_query
from repro.core.decisions import Pending, Resolved
from repro.core.evaluator import add_lane
from repro.core.pipeline import AccessController
from repro.core.product import ProductEngine
from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.smartcard.memory import MemoryMeter
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.tree import tree_to_events


def _rules(*defs):
    return RuleSet([
        AccessRule.parse(sign, subject, path, rule_id=f"E{i}")
        for i, (sign, subject, path) in enumerate(defs)
    ])


def _lane(rules, subject, default=Sign.DENY) -> AccessController:
    """A controller running one policy lane alone."""
    return AccessController(compile_policy(rules, subject, default))


def _open(lane: AccessController, tag: str):
    """Step a lane through an open; return the new element's decision."""
    lane.feed(OpenEvent(tag))
    return lane.current_decision_nodes()[0]


def _close(lane: AccessController, tag: str) -> None:
    lane.feed(CloseEvent(tag))


def test_policy_evaluator_filters_by_subject():
    rules = _rules(("+", "alice", "//a"), ("-", "bob", "//a"))
    lane = _lane(rules, "alice")
    assert _open(lane, "a").status() == Resolved(Sign.PERMIT)
    controller = AccessController(rules, "bob")
    controller.feed(OpenEvent("a"))
    auth, query = controller.current_decision_nodes()
    assert auth.status() == Resolved(Sign.DENY) and query is None


def test_group_subjects_apply():
    rules = _rules(("+", "staff", "//a"))
    lane = _lane(rules, Subject("alice", frozenset({"staff"})))
    assert _open(lane, "a").status() == Resolved(Sign.PERMIT)


def test_default_sign_controls_root():
    rules = _rules(("+", "u", "//never"))
    closed = _lane(rules, "u", default=Sign.DENY)
    assert _open(closed, "a").status() == Resolved(Sign.DENY)
    open_world = _lane(rules, "u", default=Sign.PERMIT)
    assert _open(open_world, "a").status() == Resolved(Sign.PERMIT)


def test_query_selector_selects_subtrees():
    selector = AccessController(compile_query("//b"))
    assert _open(selector, "a").status() == Resolved(Sign.DENY)
    assert _open(selector, "b").status() == Resolved(Sign.PERMIT)
    # Children of a selected node inherit selection.
    assert _open(selector, "c").status() == Resolved(Sign.PERMIT)
    # Through the controller, the query lane decides beside the policy.
    controller = AccessController(_rules(("+", "u", "//a")), "u", query="//b")
    decisions = []
    for tag in ("a", "b", "c"):
        controller.feed(OpenEvent(tag))
        auth, query = controller.current_decision_nodes()
        decisions.append((auth.status(), query.status()))
    permit, deny = Resolved(Sign.PERMIT), Resolved(Sign.DENY)
    assert decisions == [(permit, deny), (permit, permit), (permit, permit)]


def test_pending_status_surfaces_conditions():
    rules = _rules(("+", "u", "//a[b]"))
    status = _open(_lane(rules, "u"), "a").status()
    assert isinstance(status, Pending)
    assert len(status.unknowns) == 1
    controller = AccessController(rules, "u")
    controller.feed(OpenEvent("a"))
    kind, unknowns = controller.status_of(*controller.current_decision_nodes())
    assert kind == "pending" and len(unknowns) == 1


def test_close_pops_decision_stack():
    rules = _rules(("+", "u", "/a"), ("-", "u", "//x"))
    lane = _lane(rules, "u")
    outer = _open(lane, "a")
    inner = _open(lane, "x")
    assert lane.records[-1].auth is inner
    _close(lane, "x")
    assert lane.records[-1].auth is outer is not inner
    assert len(lane.records) == 1


def test_unmatched_open_shares_its_parents_decision():
    """Only an open that some rule matches gets a decision node of its
    own; any other takes its parent's node, and below a delivered
    parent its record too."""
    lane = _lane(_rules(("+", "u", "/a"), ("-", "u", "//x")), "u")
    outer = _open(lane, "a")
    delivered = lane.records[-1]
    assert _open(lane, "b") is outer and lane.records[-1] is delivered
    inner = _open(lane, "x")
    assert inner is not outer and inner.parent is outer
    assert lane.records[-1] is not delivered
    # Below a denied element the node is shared, not the record.
    assert _open(lane, "c") is inner
    assert lane.records[-1] is not lane.records[-2]
    assert lane.records[-1].auth is lane.records[-2].auth
    # On two lanes a match on either builds a node there only.
    controller = AccessController(_rules(("+", "u", "/a")), "u", query="//b")
    nodes = []
    for tag in ("a", "b", "c"):
        controller.feed(OpenEvent(tag))
        nodes.append(controller.current_decision_nodes())
    (a_auth, a_query), (b_auth, b_query), (c_auth, c_query) = nodes
    assert b_auth is a_auth and b_query is not a_query
    assert c_auth is a_auth and c_query is b_query
    assert controller.records[-1] is controller.records[-2]


def test_add_rule_after_start_rejected():
    """A lane cannot join an engine whose root already opened."""
    rules = _rules(("+", "u", "/a"))
    engine = ProductEngine()
    add_lane(engine, compile_policy(rules, "u"))
    engine.open("a")
    with pytest.raises(RuntimeError):
        add_lane(engine, compile_query("/b"))


def test_stats_accumulate():
    rules = _rules(("+", "u", "//a"))
    controller = AccessController(rules, "u")
    controller.feed(OpenEvent("a"))
    controller.feed(ValueEvent("text"))
    controller.feed(CloseEvent("a"))
    assert controller.stats.events == 3
    assert controller.stats.token_checks >= 1
    # A query lane's engine adds its own events to the same stats.
    queried = AccessController(rules, "u", query="//a")
    queried.feed(OpenEvent("a"))
    assert queried.stats.events == 2


@pytest.mark.parametrize("metered", [False, True], ids=["plain", "metered"])
def test_session_leaves_no_reference_cycles(metered):
    """A finished session is freed by reference counting alone.

    A pending-heavy session (parental control on a video catalog) on a
    cached policy: with the cyclic collector off, nothing the session
    built may be left for it to find.
    """
    events = list(tree_to_events(video_catalog(8)))
    rules = parental_rules("kid")
    registry = PolicyRegistry()

    def session():
        memory = MemoryMeter(None, strict=False) if metered else None
        controller = AccessController(
            rules, "kid", memory=memory, registry=registry
        )
        for event in events:
            controller.feed(event)
        controller.finish()

    session()  # compile and cache the policy outside the measurement
    gc.collect()
    gc.disable()
    try:
        session()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
