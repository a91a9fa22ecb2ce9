"""SAX-like event model for streaming XML.

The paper assumes "the evaluator is fed by an event-based parser (e.g.,
SAX) raising open, value and close events respectively for each opening,
text and closing tag in the input document".  These three event classes
are the common currency of the whole system: the parser produces them,
the skip-index encoder serializes them, the card applet consumes them and
the delivery module re-emits the authorized subset.  Each is a plain
slotted :class:`~repro.values.ValueObject`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.values import ValueObject


class OpenEvent(ValueObject):
    """An opening tag ``<tag attr="...">``.

    Attributes are kept as an ordered tuple of ``(name, value)`` pairs so
    events are hashable and round-trip deterministically.
    """

    __slots__ = _fields = ("tag", "attributes")

    def __init__(self, tag: str, attributes: tuple[tuple[str, str], ...] = ()) -> None:
        self.tag = tag
        self.attributes = attributes

    def attribute(self, name: str, default: str | None = None) -> str | None:
        """Return the value of attribute ``name`` or ``default``."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default


class ValueEvent(ValueObject):
    """A text node.  Adjacent text is merged into a single event."""

    __slots__ = _fields = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class CloseEvent(ValueObject):
    """A closing tag ``</tag>``."""

    __slots__ = _fields = ("tag",)

    def __init__(self, tag: str) -> None:
        self.tag = tag


Event = Union[OpenEvent, ValueEvent, CloseEvent]


class EventStreamError(ValueError):
    """Raised when an event stream violates well-formedness."""


def validate_event_stream(events: Iterable[Event]) -> Iterator[Event]:
    """Yield ``events`` while checking well-formedness.

    The checks are the structural invariants every component of the
    pipeline relies on: tags balance, text never appears at top level,
    and there is exactly one root element.

    Raises :class:`EventStreamError` on the first violation.
    """
    stack: list[str] = []
    seen_root = False
    for event in events:
        if isinstance(event, OpenEvent):
            if not stack and seen_root:
                raise EventStreamError(
                    f"second root element <{event.tag}> in stream"
                )
            seen_root = True
            stack.append(event.tag)
        elif isinstance(event, CloseEvent):
            if not stack:
                raise EventStreamError(f"unmatched closing tag </{event.tag}>")
            expected = stack.pop()
            if expected != event.tag:
                raise EventStreamError(
                    f"closing tag </{event.tag}> does not match <{expected}>"
                )
        elif isinstance(event, ValueEvent):
            if not stack:
                raise EventStreamError("text outside of the root element")
        else:  # pragma: no cover - defensive
            raise EventStreamError(f"unknown event type: {event!r}")
        yield event
    if stack:
        raise EventStreamError(f"unclosed elements at end of stream: {stack}")
    if not seen_root:
        raise EventStreamError("empty event stream (no root element)")


def events_to_paths(events: Iterable[Event]) -> Iterator[tuple[str, ...]]:
    """Yield the absolute tag path of every element, in document order.

    Useful in tests to compare a delivered stream against an expected
    projection of the input document.
    """
    stack: list[str] = []
    for event in events:
        if isinstance(event, OpenEvent):
            stack.append(event.tag)
            yield tuple(stack)
        elif isinstance(event, CloseEvent):
            stack.pop()


def event_size(event: Event) -> int:
    """Approximate serialized size of ``event`` in bytes.

    Used by resource accounting when an exact encoded form is not at
    hand (for example when charging the card output buffer).
    """
    if isinstance(event, OpenEvent):
        size = len(event.tag) + 2
        for name, value in event.attributes:
            size += len(name) + len(value) + 4
        return size
    if isinstance(event, ValueEvent):
        return len(event.text)
    return len(event.tag) + 3
