"""Unit tests for the tree model."""

import pytest
from hypothesis import given, settings

from repro.workloads import docgen
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.tree import (
    Element,
    events_to_tree,
    parse_tree,
    tree_size,
    tree_to_events,
)

from tests.strategies import elements


def test_builder_style_construction():
    root = Element("r")
    child = root.child("c", "text", attr="v")
    assert child.parent is root
    assert child.text == "text"
    assert child.attributes == {"attr": "v"}
    assert root.element_children == [child]


def test_paths_and_depth():
    root = Element("a")
    b = root.child("b")
    c = b.child("c")
    assert c.path() == ("a", "b", "c")
    assert c.depth() == 3
    assert list(c.ancestors()) == [b, root]


def test_iter_is_document_order():
    root = parse_tree("<a><b><c/></b><d/></a>")
    assert [n.tag for n in root.iter()] == ["a", "b", "c", "d"]


def _recursive_iter(node: Element):
    """The recursive pre-order walk, kept as the oracle of ``iter``."""
    yield node
    for child in node.children:
        if isinstance(child, Element):
            yield from _recursive_iter(child)


@pytest.mark.parametrize("build", [
    docgen.hospital, docgen.bibliography, docgen.agenda,
    docgen.video_catalog, docgen.nested,
])
def test_iter_matches_the_recursive_walk(build):
    root = build()
    nodes = list(root.iter())
    assert nodes == list(_recursive_iter(root))
    # Every subtree walks the same way.
    for node in nodes[::7]:
        assert list(node.iter()) == list(_recursive_iter(node))


def test_iter_walks_a_chain_deeper_than_the_recursion_limit():
    depth = 1200
    root = parse_tree("<n>" * depth + "</n>" * depth)
    nodes = list(root.iter())
    assert len(nodes) == tree_size(root) == depth
    assert nodes[-1].depth() == depth and not nodes[-1].children


def _recursive_events(node: Element):
    """The recursive serialization, kept as the oracle of ``tree_to_events``."""
    yield OpenEvent(node.tag, tuple(node.attributes.items()))
    for child in node.children:
        if isinstance(child, Element):
            yield from _recursive_events(child)
        elif child:
            yield ValueEvent(child)
    yield CloseEvent(node.tag)


@pytest.mark.parametrize("build", [
    docgen.hospital, docgen.bibliography, docgen.agenda,
    docgen.video_catalog, docgen.nested,
])
def test_tree_to_events_matches_the_recursive_walk(build):
    root = build()
    assert list(tree_to_events(root)) == list(_recursive_events(root))
    for node in list(root.iter())[::7]:
        assert list(tree_to_events(node)) == list(_recursive_events(node))


def test_tree_to_events_serializes_a_chain_deeper_than_the_recursion_limit():
    depth = 1200
    root = parse_tree("<n>" * depth + "</n>" * depth)
    events = list(tree_to_events(root))
    assert len(events) == 2 * depth
    assert events[:depth] == [OpenEvent("n")] * depth
    assert events[depth:] == [CloseEvent("n")] * depth


def test_find_all_excludes_self():
    root = parse_tree("<a><a/><b><a/></b></a>")
    assert len(root.find_all("a")) == 2


def test_text_concatenates_direct_children_only():
    root = parse_tree("<a>x<b>inner</b>y</a>")
    assert root.text == "xy"


def test_events_to_tree_rejects_malformed():
    with pytest.raises(ValueError):
        events_to_tree([OpenEvent("a")])


def test_tree_size():
    assert tree_size(parse_tree("<a><b/><c><d/></c></a>")) == 4


@settings(max_examples=100, deadline=None)
@given(root=elements())
def test_tree_event_round_trip(root):
    events = list(tree_to_events(root))
    rebuilt = events_to_tree(events)
    assert list(tree_to_events(rebuilt)) == events
