"""Incremental, event-based XML parser.

The parser is deliberately written as a pull pipeline: it accepts either
a complete string or an iterable of text chunks and yields
:class:`~repro.xmlstream.events.Event` objects as soon as they are
complete.  Nothing is ever materialized beyond the current token, which
mirrors the streaming constraint of the Secure Operating Environment.

Supported XML subset (sufficient for the paper's data model):

* elements with attributes (single- or double-quoted),
* text content with the five predefined entities and character
  references,
* CDATA sections, comments, processing instructions and a DOCTYPE
  declaration (the last three are skipped),
* no namespace processing (``:`` is treated as a plain name character).

Scanning is find/regex-based rather than character-at-a-time: names,
text runs, whitespace and markup delimiters are located with
:meth:`str.find` and compiled patterns (one C-level scan per token),
and the buffer is consumed through a read cursor with batched chunk
joins, so total buffering cost stays linear in the input even when a
single token spans many chunks.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.xmlstream.escape import resolve_entity
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent

#: Name production of the supported subset: ``:`` is a plain name
#: character, no Unicode classes (workload documents are ASCII).
_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
#: First non-whitespace character (whitespace per the XML subset).
_NON_WS_RE = re.compile(r"[^ \t\r\n]")


class XMLSyntaxError(ValueError):
    """Raised on malformed input, with the offset of the error."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _Scanner:
    """Buffered scanner over an iterator of text chunks.

    The buffer is consumed through ``_pos`` (no per-take prefix
    slicing); incoming chunks are merged with one ``join`` per refill
    instead of repeated ``+=``, so memory traffic is bounded by the
    input length plus the largest single token.
    """

    __slots__ = ("_chunks", "_buffer", "_pos", "_consumed", "_eof")

    def __init__(self, chunks: Iterable[str]) -> None:
        self._chunks = iter(chunks)
        self._buffer = ""
        self._pos = 0  # index of the next unconsumed character
        self._consumed = 0  # absolute offset of _buffer[_pos]
        self._eof = False

    @property
    def offset(self) -> int:
        """Absolute offset of the scanner position in the input."""
        return self._consumed

    def _fill(self, length: int) -> bool:
        """Make ``length`` unconsumed characters available, or hit EOF."""
        available = len(self._buffer) - self._pos
        if available >= length:
            return True
        if self._eof:
            return False
        parts = [self._buffer[self._pos:]] if available else []
        while available < length:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                self._eof = True
                break
            parts.append(chunk)
            available += len(chunk)
        self._buffer = "".join(parts)
        self._pos = 0
        return available >= length

    def peek(self, index: int = 0) -> str:
        """Return the character at ``index`` or '' at EOF."""
        if not self._fill(index + 1):
            return ""
        return self._buffer[self._pos + index]

    def startswith(self, prefix: str) -> bool:
        if not self._fill(len(prefix)):
            return False
        return self._buffer.startswith(prefix, self._pos)

    def take(self, count: int) -> str:
        """Consume and return exactly ``count`` characters."""
        if not self._fill(count):
            raise XMLSyntaxError("unexpected end of input", self.offset)
        position = self._pos
        text = self._buffer[position:position + count]
        self._pos = position + count
        self._consumed += count
        return text

    def take_until(self, marker: str, *, error: str) -> str:
        """Consume text up to ``marker`` and the marker itself.

        Returns the text before the marker.  When the marker is not yet
        buffered, chunks are scanned as they arrive (searching only the
        boundary overlap plus the new chunk), so cost is linear in the
        bytes consumed rather than quadratic in the token length.
        """
        index = self._buffer.find(marker, self._pos)
        if index >= 0:
            text = self._buffer[self._pos:index]
            self._pos = index + len(marker)
            self._consumed += len(text) + len(marker)
            return text
        overlap = len(marker) - 1
        parts = [self._buffer[self._pos:]]
        total = len(parts[0])
        # ``tail`` rolls the last overlap characters of everything
        # accumulated so far, so a marker split across any number of
        # tiny chunks is still found.
        tail = parts[0][-overlap:] if overlap else ""
        while True:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                self._eof = True
                raise XMLSyntaxError(error, self.offset) from None
            probe = tail + chunk
            hit = probe.find(marker)
            if hit >= 0:
                start = total - len(tail) + hit  # marker start, accumulated
                parts.append(chunk)
                whole = "".join(parts)
                self._buffer = whole[start + len(marker):]
                self._pos = 0
                self._consumed += start + len(marker)
                return whole[:start]
            parts.append(chunk)
            total += len(chunk)
            if overlap:
                tail = probe[-overlap:]

    def take_name(self) -> str:
        """Consume one XML name (find-based, spanning chunk boundaries)."""
        if not self._fill(1):
            raise XMLSyntaxError("expected a name, found ''", self.offset)
        while True:
            match = _NAME_RE.match(self._buffer, self._pos)
            if match is None:
                found = self._buffer[self._pos]
                raise XMLSyntaxError(
                    f"expected a name, found {found!r}", self.offset
                )
            end = match.end()
            if end < len(self._buffer) or self._eof:
                break
            # The name may continue into the next chunk: refill, then
            # rematch from the top -- _fill compacts the buffer (moving
            # the cursor), so pre-refill coordinates are always stale.
            self._fill(len(self._buffer) - self._pos + 1)
        name = self._buffer[self._pos:end]
        self._consumed += end - self._pos
        self._pos = end
        return name

    def take_text(self) -> str:
        """Consume raw text up to (excluding) the next ``<`` or EOF."""
        if not self._fill(1):
            return ""
        parts: list[str] = []
        while True:
            index = self._buffer.find("<", self._pos)
            if index >= 0:
                parts.append(self._buffer[self._pos:index])
                self._consumed += index - self._pos
                self._pos = index
                break
            parts.append(self._buffer[self._pos:])
            self._consumed += len(self._buffer) - self._pos
            self._buffer = ""
            self._pos = 0
            if not self._fill(1):
                break
        return "".join(parts)

    def skip_whitespace(self) -> None:
        while True:
            match = _NON_WS_RE.search(self._buffer, self._pos)
            if match is not None:
                self._consumed += match.start() - self._pos
                self._pos = match.start()
                return
            self._consumed += len(self._buffer) - self._pos
            self._buffer = ""
            self._pos = 0
            if not self._fill(1):
                return

    def at_eof(self) -> bool:
        return not self._fill(1)


def _decode_entities(text: str, offset: int) -> str:
    """Replace entity and character references in ``text``."""
    if "&" not in text:
        return text
    parts: list[str] = []
    position = 0
    while True:
        amp = text.find("&", position)
        if amp < 0:
            parts.append(text[position:])
            return "".join(parts)
        semi = text.find(";", amp + 1)
        if semi < 0:
            raise XMLSyntaxError("unterminated entity reference", offset + amp)
        replacement = resolve_entity(text[amp + 1:semi])
        if replacement is None:
            raise XMLSyntaxError(
                f"unknown entity &{text[amp + 1:semi]};", offset + amp
            )
        parts.append(text[position:amp])
        parts.append(replacement)
        position = semi + 1


def _read_attributes(
    scanner: _Scanner,
) -> tuple[tuple[tuple[str, str], ...], bool]:
    """Parse attributes up to ``>`` or ``/>``.

    Returns ``(attributes, self_closing)``.
    """
    attributes: list[tuple[str, str]] = []
    while True:
        scanner.skip_whitespace()
        char = scanner.peek()
        if char == ">":
            scanner.take(1)
            return tuple(attributes), False
        if char == "/":
            if not scanner.startswith("/>"):
                raise XMLSyntaxError("expected '/>'", scanner.offset)
            scanner.take(2)
            return tuple(attributes), True
        if not char:
            raise XMLSyntaxError("unexpected end of tag", scanner.offset)
        name = scanner.take_name()
        scanner.skip_whitespace()
        if scanner.peek() != "=":
            raise XMLSyntaxError(
                f"expected '=' after attribute {name!r}", scanner.offset
            )
        scanner.take(1)
        scanner.skip_whitespace()
        quote = scanner.peek()
        if quote not in ("'", '"'):
            raise XMLSyntaxError("attribute value must be quoted", scanner.offset)
        scanner.take(1)
        value_offset = scanner.offset
        raw = scanner.take_until(quote, error="unterminated attribute value")
        attributes.append((name, _decode_entities(raw, value_offset)))


def parse_events(
    source: str | Iterable[str],
    *,
    keep_whitespace: bool = False,
) -> Iterator[Event]:
    """Parse ``source`` into a stream of events.

    ``source`` may be a complete document string or any iterable of text
    chunks (the chunks may split the document at arbitrary positions).
    Whitespace-only text nodes are dropped unless ``keep_whitespace`` is
    true; adjacent text (including across CDATA boundaries) is merged
    into a single :class:`ValueEvent`.
    """
    if isinstance(source, str):
        source = (source,)
    scanner = _Scanner(source)
    depth = 0
    open_tags: list[str] = []
    seen_root = False
    pending_text: list[str] = []

    def flush_text() -> Iterator[Event]:
        if not pending_text:
            return
        text = "".join(pending_text)
        pending_text.clear()
        if depth == 0:
            if text.strip():
                raise XMLSyntaxError("text outside the root element", scanner.offset)
            return
        if text.strip() or keep_whitespace:
            yield ValueEvent(text)

    while True:
        if scanner.at_eof():
            break
        if scanner.peek() != "<":
            text_offset = scanner.offset
            raw = scanner.take_text()
            pending_text.append(_decode_entities(raw, text_offset))
            continue
        # Markup.
        if scanner.startswith("<![CDATA["):
            scanner.take(9)
            pending_text.append(
                scanner.take_until("]]>", error="unterminated CDATA section")
            )
            continue
        yield from flush_text()
        if scanner.startswith("<!--"):
            scanner.take(4)
            scanner.take_until("-->", error="unterminated comment")
            continue
        if scanner.startswith("<?"):
            scanner.take(2)
            scanner.take_until("?>", error="unterminated processing instruction")
            continue
        if scanner.startswith("<!"):
            scanner.take(2)
            scanner.take_until(">", error="unterminated declaration")
            continue
        if scanner.startswith("</"):
            scanner.take(2)
            name = scanner.take_name()
            scanner.skip_whitespace()
            if scanner.peek() != ">":
                raise XMLSyntaxError("malformed closing tag", scanner.offset)
            scanner.take(1)
            if depth == 0:
                raise XMLSyntaxError(
                    f"unmatched closing tag </{name}>", scanner.offset
                )
            expected = open_tags.pop()
            if expected != name:
                raise XMLSyntaxError(
                    f"closing tag </{name}> does not match <{expected}>",
                    scanner.offset,
                )
            depth -= 1
            yield CloseEvent(name)
            continue
        scanner.take(1)  # '<'
        name = scanner.take_name()
        attributes, self_closing = _read_attributes(scanner)
        if depth == 0 and seen_root:
            raise XMLSyntaxError("multiple root elements", scanner.offset)
        seen_root = True
        yield OpenEvent(name, attributes)
        if self_closing:
            yield CloseEvent(name)
        else:
            depth += 1
            open_tags.append(name)

    yield from flush_text()
    if depth != 0:
        raise XMLSyntaxError("unclosed elements at end of input", scanner.offset)
    if not seen_root:
        raise XMLSyntaxError("document has no root element", scanner.offset)


def parse_string(text: str, *, keep_whitespace: bool = False) -> list[Event]:
    """Parse a complete document and return the event list."""
    return list(parse_events(text, keep_whitespace=keep_whitespace))
