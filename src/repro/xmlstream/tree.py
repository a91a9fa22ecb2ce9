"""A small in-memory XML tree.

The tree model is used on the *untrusted* sides of the architecture only
-- the workload generators build documents with it and the test suite's
reference oracle evaluates access control on it.  The simulated smart
card never constructs a tree: its whole point is streaming evaluation in
bounded memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent


class Element:
    """An XML element with attributes and ordered children.

    Children are either :class:`Element` instances or plain strings
    (text nodes).
    """

    __slots__ = ("tag", "attributes", "children", "parent")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        parent: "Element | None" = None,
    ) -> None:
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes or {})
        self.children: list[Element | str] = []
        self.parent = parent

    # -- construction -------------------------------------------------

    def child(self, tag: str, text: str | None = None, **attributes: str) -> "Element":
        """Append and return a new child element (builder style)."""
        node = Element(tag, attributes, parent=self)
        self.children.append(node)
        if text is not None:
            node.children.append(text)
        return node

    def add_text(self, text: str) -> "Element":
        """Append a text node and return self."""
        self.children.append(text)
        return self

    # -- navigation ---------------------------------------------------

    @property
    def element_children(self) -> list["Element"]:
        """Child elements only, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    @property
    def text(self) -> str:
        """Concatenation of the direct text children."""
        return "".join(c for c in self.children if isinstance(c, str))

    def iter(self) -> Iterator["Element"]:
        """Iterate over this element and all descendants, document order.

        The walk keeps its own stack, so it costs one generator for the
        whole tree and no Python recursion, at any depth.
        """
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                if isinstance(child, Element):
                    stack.append(child)

    def ancestors(self) -> Iterator["Element"]:
        """Iterate over ancestors from parent up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path(self) -> tuple[str, ...]:
        """Absolute tag path from the root to this element."""
        tags = [self.tag]
        tags.extend(a.tag for a in self.ancestors())
        return tuple(reversed(tags))

    def depth(self) -> int:
        """Depth of this element (the root has depth 1)."""
        return sum(1 for _ in self.ancestors()) + 1

    def find_all(self, tag: str) -> list["Element"]:
        """All descendants (excluding self) with the given tag."""
        return [node for node in self.iter() if node is not self and node.tag == tag]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.tag!r}, children={len(self.children)})"


def tree_to_events(root: Element) -> Iterator[Event]:
    """Serialize a tree to the event stream the card would consume.

    Like :meth:`Element.iter` the walk keeps its own stack (of each
    open element and its children still to visit), so it needs no
    Python recursion, at any depth.
    """
    yield OpenEvent(root.tag, tuple(root.attributes.items()))
    stack = [(root, iter(root.children))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if isinstance(child, Element):
                yield OpenEvent(child.tag, tuple(child.attributes.items()))
                stack.append((child, iter(child.children)))
                break
            if child:
                yield ValueEvent(child)
        else:
            stack.pop()
            yield CloseEvent(node.tag)


def events_to_tree(events: Iterable[Event]) -> Element:
    """Build a tree from a well-formed event stream."""
    root: Element | None = None
    current: Element | None = None
    for event in events:
        if isinstance(event, OpenEvent):
            node = Element(event.tag, dict(event.attributes), parent=current)
            if current is None:
                if root is not None:
                    raise ValueError("multiple root elements in stream")
                root = node
            else:
                current.children.append(node)
            current = node
        elif isinstance(event, ValueEvent):
            if current is None:
                raise ValueError("text outside the root element")
            current.children.append(event.text)
        elif isinstance(event, CloseEvent):
            if current is None or current.tag != event.tag:
                raise ValueError(f"unbalanced close tag </{event.tag}>")
            current = current.parent
    if root is None or current is not None:
        raise ValueError("incomplete event stream")
    return root


def parse_tree(text: str) -> Element:
    """Parse XML text directly into a tree."""
    from repro.xmlstream.parser import parse_events

    return events_to_tree(parse_events(text))


def tree_size(root: Element) -> int:
    """Number of element nodes in the tree."""
    return sum(1 for _ in root.iter())
