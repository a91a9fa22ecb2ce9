"""Unit tests for the event model and stream validation."""

import pytest

from repro.xmlstream.events import (
    CloseEvent,
    EventStreamError,
    OpenEvent,
    ValueEvent,
    event_size,
    events_to_paths,
    validate_event_stream,
)


def test_open_event_attribute_lookup():
    event = OpenEvent("a", (("x", "1"), ("y", "2")))
    assert event.attribute("x") == "1"
    assert event.attribute("missing") is None
    assert event.attribute("missing", "d") == "d"


def test_events_are_hashable_and_comparable():
    assert OpenEvent("a") == OpenEvent("a")
    assert len({OpenEvent("a"), OpenEvent("a"), CloseEvent("a")}) == 2


def test_validate_accepts_wellformed():
    events = [OpenEvent("a"), ValueEvent("x"), CloseEvent("a")]
    assert list(validate_event_stream(events)) == events


def test_validate_rejects_unbalanced_close():
    with pytest.raises(EventStreamError):
        list(validate_event_stream([OpenEvent("a"), CloseEvent("b")]))


def test_validate_rejects_unclosed():
    with pytest.raises(EventStreamError):
        list(validate_event_stream([OpenEvent("a")]))


def test_validate_rejects_two_roots():
    events = [OpenEvent("a"), CloseEvent("a"), OpenEvent("b"), CloseEvent("b")]
    with pytest.raises(EventStreamError):
        list(validate_event_stream(events))


def test_validate_rejects_toplevel_text():
    with pytest.raises(EventStreamError):
        list(validate_event_stream([ValueEvent("x")]))


def test_validate_rejects_empty_stream():
    with pytest.raises(EventStreamError):
        list(validate_event_stream([]))


def test_events_to_paths():
    events = [
        OpenEvent("a"),
        OpenEvent("b"),
        CloseEvent("b"),
        OpenEvent("b"),
        OpenEvent("c"),
        CloseEvent("c"),
        CloseEvent("b"),
        CloseEvent("a"),
    ]
    assert list(events_to_paths(events)) == [
        ("a",), ("a", "b"), ("a", "b"), ("a", "b", "c")
    ]


def test_event_size_scales_with_content():
    small = event_size(OpenEvent("a"))
    big = event_size(OpenEvent("a", (("attr", "value"),)))
    assert big > small
    assert event_size(ValueEvent("xyz")) == 3
    assert event_size(CloseEvent("ab")) == 5


# -- value semantics -----------------------------------------------------------

#: ``(left, right, equal)``: every event compares by type and fields.
EQUALITY_TABLE = [
    (OpenEvent("a"), OpenEvent("a"), True),
    (OpenEvent("a"), OpenEvent("a", ()), True),
    (OpenEvent("a", (("k", "v"),)), OpenEvent("a", (("k", "v"),)), True),
    (OpenEvent("a"), OpenEvent("b"), False),
    (OpenEvent("a", (("k", "v"),)), OpenEvent("a"), False),
    (OpenEvent("a", (("k", "v"),)), OpenEvent("a", (("k", "w"),)), False),
    (ValueEvent("x"), ValueEvent("x"), True),
    (ValueEvent("x"), ValueEvent("y"), False),
    (CloseEvent("a"), CloseEvent("a"), True),
    (CloseEvent("a"), CloseEvent("b"), False),
    # Across types, equal fields never make equal events.
    (OpenEvent("a"), CloseEvent("a"), False),
    (OpenEvent("a"), ValueEvent("a"), False),
    (ValueEvent("a"), CloseEvent("a"), False),
    # Nor does a tuple of the same fields.
    (OpenEvent("a"), ("a", ()), False),
    (CloseEvent("a"), ("a",), False),
]


@pytest.mark.parametrize("left, right, equal", EQUALITY_TABLE)
def test_event_equality_table(left, right, equal):
    assert (left == right) is equal
    assert (right == left) is equal
    assert (left != right) is (not equal)
    assert (right != left) is (not equal)
    if equal:
        assert hash(left) == hash(right)


def test_event_hash_is_the_hash_of_its_fields():
    assert hash(OpenEvent("a")) == hash(("a", ()))
    assert hash(OpenEvent("a", (("k", "v"),))) == hash(("a", (("k", "v"),)))
    assert hash(ValueEvent("x")) == hash(("x",))
    assert hash(CloseEvent("a")) == hash(("a",))


def test_event_repr():
    assert repr(OpenEvent("a")) == "OpenEvent(tag='a', attributes=())"
    assert (
        repr(OpenEvent("a", (("k", "v"),)))
        == "OpenEvent(tag='a', attributes=(('k', 'v'),))"
    )
    assert repr(ValueEvent("x")) == "ValueEvent(text='x')"
    assert repr(CloseEvent("a")) == "CloseEvent(tag='a')"


def test_event_defaults_and_keywords():
    assert OpenEvent("a").attributes == ()
    assert OpenEvent(tag="a", attributes=(("k", "v"),)).attribute("k") == "v"
    assert ValueEvent(text="x").text == "x"
    assert CloseEvent(tag="a").tag == "a"
    assert OpenEvent("a", (("k", "v"), ("k", "w"))).attribute("k") == "v"


def test_events_as_dict_keys():
    counts: dict = {}
    for event in (
        OpenEvent("a"), OpenEvent("a"), CloseEvent("a"), ValueEvent("a"),
        OpenEvent("a", (("k", "v"),)), CloseEvent("a"),
    ):
        counts[event] = counts.get(event, 0) + 1
    assert counts == {
        OpenEvent("a"): 2,
        CloseEvent("a"): 2,
        ValueEvent("a"): 1,
        OpenEvent("a", (("k", "v"),)): 1,
    }
