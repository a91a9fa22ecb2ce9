"""Serialize event streams back to XML text.

The writer is the exact inverse of :mod:`repro.xmlstream.parser` for the
supported subset, which gives the round-trip property exploited by the
test suite: ``parse(write(events)) == events``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.xmlstream.escape import escape_attribute, escape_text
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent


def write_events(
    events: Iterable[Event],
    *,
    indent: str | None = None,
) -> Iterator[str]:
    """Yield text fragments serializing ``events``.

    With ``indent`` set (e.g. ``"  "``), a pretty-printed form is
    produced: element-only content is placed on indented lines while
    mixed/text content keeps its exact spacing.  The default compact
    form is byte-faithful for round-tripping.
    """
    if indent is None:
        yield from _write_compact(events)
    else:
        yield from _write_pretty(events, indent)


def _open_tag_text(event: OpenEvent) -> str:
    if not event.attributes:
        return f"<{event.tag}>"
    parts = ["<", event.tag]
    for name, value in event.attributes:
        parts.append(f' {name}="{escape_attribute(value)}"')
    parts.append(">")
    return "".join(parts)


def _write_compact(events: Iterable[Event]) -> Iterator[str]:
    for event in events:
        if isinstance(event, OpenEvent):
            yield _open_tag_text(event)
        elif isinstance(event, ValueEvent):
            yield escape_text(event.text)
        elif isinstance(event, CloseEvent):
            yield f"</{event.tag}>"
        else:  # pragma: no cover - defensive
            raise TypeError(f"not an event: {event!r}")


def _write_pretty(events: Iterable[Event], indent: str) -> Iterator[str]:
    depth = 0
    # A small lookahead lets <leaf>text</leaf> stay on one line.
    buffered: list[Event] = []
    stream = iter(events)

    def pull() -> Event | None:
        if buffered:
            return buffered.pop()
        return next(stream, None)

    first = True
    while True:
        event = pull()
        if event is None:
            break
        if isinstance(event, OpenEvent):
            if not first:
                yield "\n"
            first = False
            yield indent * depth
            yield _open_tag_text(event)
            nxt = pull()
            if isinstance(nxt, ValueEvent):
                after = pull()
                if isinstance(after, CloseEvent):
                    yield escape_text(nxt.text)
                    yield f"</{after.tag}>"
                    continue
                if after is not None:
                    buffered.append(after)
                buffered.append(nxt)
            elif isinstance(nxt, CloseEvent):
                yield f"</{nxt.tag}>"
                continue
            elif nxt is not None:
                buffered.append(nxt)
            depth += 1
        elif isinstance(event, ValueEvent):
            yield "\n"
            yield indent * depth
            yield escape_text(event.text)
        elif isinstance(event, CloseEvent):
            depth -= 1
            yield "\n"
            yield indent * depth
            yield f"</{event.tag}>"
    yield "\n"


def write_string(events: Iterable[Event], *, indent: str | None = None) -> str:
    """Serialize ``events`` to a single string.

    The compact form is built with an explicit loop (the applet calls
    this once per released output batch, usually with a handful of
    events -- generator dispatch would double the per-event cost).
    """
    if indent is not None:
        return "".join(write_events(events, indent=indent))
    parts: list[str] = []
    append = parts.append
    for event in events:
        cls = type(event)
        if cls is OpenEvent:
            append(_open_tag_text(event) if event.attributes else f"<{event.tag}>")
        elif cls is ValueEvent:
            append(escape_text(event.text))
        elif cls is CloseEvent:
            append(f"</{event.tag}>")
        else:
            append("".join(_write_compact((event,))))
    return "".join(parts)
