"""Unit tests for the high-level pipeline API."""

import pytest

from repro.core import AccessRule, RuleSet, authorized_view
from repro.core.pipeline import AccessController
from repro.core.delivery import Record
from repro.xmlstream.parser import parse_string
from repro.xmlstream.writer import write_string


RULES = RuleSet([
    AccessRule.parse("+", "u", "/r", rule_id="P1"),
    AccessRule.parse("-", "u", "//secret", rule_id="P2"),
])


def test_authorized_view_one_call():
    out = authorized_view(parse_string("<r><secret/>x</r>"), RULES, "u")
    assert write_string(out) == "<r>x</r>"


def test_feed_loop_releases_incrementally():
    """Each delivered event is released by the event itself."""
    events = parse_string("<r><a>1</a><secret>hidden</secret><b>2</b></r>")
    controller = AccessController(RULES, "u")
    streamed, released_by = [], []
    for event in events:
        released = controller.feed(event)
        released_by.append(list(released))
        streamed.extend(released)
    streamed.extend(controller.finish())
    assert streamed == authorized_view(events, RULES, "u")
    # <secret>, its text and </secret> release nothing.
    assert released_by == (
        [[event] for event in events[:4]] + [[], [], []] + [[event] for event in events[7:]]
    )


def test_query_accepts_text_or_ast():
    from repro.xpathlib.parser import parse_path

    events = parse_string("<r><a>1</a><b>2</b></r>")
    by_text = authorized_view(events, RULES, "u", query="//b")
    by_ast = authorized_view(events, RULES, "u", query=parse_path("//b"))
    assert by_text == by_ast


def test_current_status_reports_innermost():
    controller = AccessController(RULES, "u")
    controller.feed(parse_string("<r><secret></secret></r>")[0])
    kind, __ = controller.status_of(*controller.current_decision_nodes())
    assert kind == Record.DELIVER == controller.records[-1].kind
    controller.feed(parse_string("<r><secret></secret></r>")[1])
    kind, __ = controller.status_of(*controller.current_decision_nodes())
    assert kind == Record.DROP == controller.records[-1].kind


def test_subtree_is_irrelevant_combines_evaluators():
    controller = AccessController(RULES, "u", query="//wanted")
    controller.feed(parse_string("<r></r>")[0])
    # The query could still complete on a 'wanted' inside.
    assert not controller.subtree_is_irrelevant(frozenset({"wanted"}))
    assert controller.subtree_is_irrelevant(frozenset({"other"}))


def test_text_outside_root_rejected():
    from repro.xmlstream.events import ValueEvent

    controller = AccessController(RULES, "u")
    with pytest.raises(ValueError):
        controller.feed(ValueEvent("stray"))


@pytest.mark.parametrize("thing", ["<r>", ("open", "r"), None])
def test_feed_rejects_what_is_not_an_event(thing):
    controller = AccessController(RULES, "u")
    with pytest.raises(TypeError):
        controller.feed(thing)


def test_feed_releases_nothing_while_everything_is_dropped():
    from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent

    controller = AccessController(RULES, "u")
    assert controller.feed(OpenEvent("r")) == [OpenEvent("r")]
    assert controller.feed(OpenEvent("secret")) == []
    assert controller.feed(ValueEvent("x")) == []
    assert controller.feed(CloseEvent("secret")) == []
    assert controller.feed(CloseEvent("r")) == [CloseEvent("r")]
    assert controller.finish() == []


def test_active_token_count_exposed():
    controller = AccessController(RULES, "u", query="//x")
    controller.feed(parse_string("<r></r>")[0])
    assert controller.active_token_count() > 0
