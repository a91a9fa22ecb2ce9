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

Scanning is one compiled alternation, ``_TOKEN``, matched at the
cursor: each match is one whole token -- a text run, a closing tag, an
opening tag with its attribute span, a CDATA section, or a skipped
comment, PI or declaration -- and :func:`parse_events` dispatches on
the group that matched.  The attributes of a tag are read from its span
by one ``findall`` (``finditer`` when a value carries an entity, for
error offsets).

Chunked input is buffered behind the cursor.  Every markup token ends
in its own delimiter, so a markup match is complete; a text run that
touches the end of the buffer before the input ends, or no match
before the input ends, refills and retries.  Each refill at least
doubles the unconsumed buffer, so a token spanning many chunks is
rescanned a geometric number of times and costs linear time overall.
When nothing matches, :func:`_diagnose` walks the token the way the
grammar reads it and either raises its :class:`XMLSyntaxError` -- as
soon as the buffered text proves it malformed, with the same message
and offset however the input is chunked -- or asks for more input.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from repro.xmlstream.escape import resolve_entity
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent

#: Name production of the supported subset: ``:`` is a plain name
#: character, no Unicode classes (workload documents are ASCII).
_NAME_CHAR = r"[A-Za-z0-9_:.\-]"
_NAME = rf"[A-Za-z_:]{_NAME_CHAR}*"
#: Whitespace per the XML subset.
_WS = r"[ \t\r\n]"
#: One ``name="value"`` pair inside an opening tag.
_ATTRIBUTE = rf"""{_NAME}{_WS}*={_WS}*(?:"[^"]*"|'[^']*')"""

#: One token at the cursor.  The outer named group of each alternative
#: is the match's ``lastgroup``.  The tag name of an opening tag must
#: not be followed by a name character, so backtracking cannot split
#: ``<ab='1'>`` into a tag ``a`` and an attribute ``b``; a declaration
#: ``<!...>`` is whatever is neither a comment nor a CDATA section.
_TOKEN = re.compile(
    r"(?P<text>[^<]+)"
    rf"|(?P<close></(?P<close_tag>{_NAME}){_WS}*>)"
    rf"|(?P<open><(?P<open_tag>{_NAME})(?!{_NAME_CHAR})"
    rf"(?P<attributes>(?:{_WS}*{_ATTRIBUTE})*){_WS}*(?P<empty>/?)>)"
    r"|(?P<cdata><!\[CDATA\[(?P<cdata_text>.*?)\]\]>)"
    r"|(?P<skip><!--.*?-->|<\?.*?\?>|<!(?!--|\[CDATA\[)[^>]*>)",
    re.DOTALL,
)
#: ``_ATTRIBUTE`` with groups for the name, the double-quoted and the
#: single-quoted value, read over a matched attribute span.
_ATTRIBUTE_RE = re.compile(rf"""({_NAME}){_WS}*={_WS}*(?:"([^"]*)"|'([^']*)')""")
_NAME_RE = re.compile(_NAME)
#: First non-whitespace character.
_NON_WS_RE = re.compile(r"[^ \t\r\n]")


class XMLSyntaxError(ValueError):
    """Raised on malformed input, with the offset of the error."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


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


def _read_attributes(span: str, offset: int) -> tuple[tuple[str, str], ...]:
    """The ``(name, value)`` pairs of a matched attribute span.

    ``offset`` is the absolute offset of ``span``; it places the error
    of an entity reference that does not resolve.
    """
    if "&" not in span:
        return tuple([(name, dq or sq) for name, dq, sq in _ATTRIBUTE_RE.findall(span)])
    attributes: list[tuple[str, str]] = []
    for match in _ATTRIBUTE_RE.finditer(span):
        group = 2 if match.group(2) is not None else 3
        attributes.append(
            (match.group(1), _decode_entities(match.group(group), offset + match.start(group)))
        )
    return tuple(attributes)


def _diagnose(buffer: str, pos: int, base: int, eof: bool) -> XMLSyntaxError | None:
    """The error of the markup at ``buffer[pos]``, which ``_TOKEN`` did
    not match, or ``None`` when it may yet complete with more input.

    Walks the token in grammar order -- the same order a
    character-at-a-time reader takes -- so the first fault is the one
    reported.  ``base`` is the absolute offset of ``buffer[0]``; past
    the buffer's end an unfinished token is an error only at ``eof``.
    """
    end = len(buffer)

    def fault(message: str, index: int) -> XMLSyntaxError:
        return XMLSyntaxError(message, base + index)

    def unterminated(marker: str, start: int, message: str) -> XMLSyntaxError | None:
        if eof and buffer.find(marker, start) < 0:
            return fault(message, start)
        return None

    def name_at(index: int) -> int | XMLSyntaxError | None:
        """The end of the name at ``index``, or its fault."""
        match = _NAME_RE.match(buffer, index)
        if match is None:
            if index < end:
                return fault(f"expected a name, found {buffer[index]!r}", index)
            return fault("expected a name, found ''", index) if eof else None
        if match.end() == end and not eof:
            return None
        return match.end()

    def skip_whitespace(index: int) -> int:
        match = _NON_WS_RE.search(buffer, index)
        return end if match is None else match.start()

    rest = buffer[pos:pos + 9]
    if not eof and any(
        len(rest) < len(marker) and marker.startswith(rest)
        for marker in ("<![CDATA[", "<!--", "<?", "</")
    ):
        return None  # which kind of markup is not known yet
    if rest.startswith("<![CDATA["):
        return unterminated("]]>", pos + 9, "unterminated CDATA section")
    if rest.startswith("<!--"):
        return unterminated("-->", pos + 4, "unterminated comment")
    if rest.startswith("<?"):
        return unterminated("?>", pos + 2, "unterminated processing instruction")
    if rest.startswith("<!"):
        return unterminated(">", pos + 2, "unterminated declaration")
    if rest.startswith("</"):
        index = name_at(pos + 2)
        if not isinstance(index, int):
            return index
        index = skip_whitespace(index)
        if index == end and not eof or buffer.startswith(">", index):
            return None
        return fault("malformed closing tag", index)
    index = name_at(pos + 1)
    while isinstance(index, int):
        index = skip_whitespace(index)
        if index == end:
            return fault("unexpected end of tag", index) if eof else None
        char = buffer[index]
        if char == ">":
            return None
        if char == "/":
            if index + 1 == end and not eof or buffer.startswith("/>", index):
                return None
            return fault("expected '/>'", index)
        attribute = index
        index = name_at(index)
        if not isinstance(index, int):
            return index
        name = buffer[attribute:index]
        index = skip_whitespace(index)
        if index == end and not eof:
            return None
        if index == end or buffer[index] != "=":
            return fault(f"expected '=' after attribute {name!r}", index)
        index = skip_whitespace(index + 1)
        if index == end and not eof:
            return None
        if index == end or buffer[index] not in "'\"":
            return fault("attribute value must be quoted", index)
        close = buffer.find(buffer[index], index + 1)
        if close < 0:
            return fault("unterminated attribute value", index + 1) if eof else None
        _decode_entities(buffer[index + 1:close], base + index + 1)
        index = close + 1
    return index


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
        chunks: Iterator[str] = iter(())
        buffer, eof = source, True
    else:
        chunks = iter(source)
        buffer, eof = "", False
    pos = 0  # cursor: index of the next unconsumed character
    base = 0  # absolute offset of buffer[0]
    open_tags: list[str] = []
    seen_root = False
    pending_text: list[str] = []
    match = _TOKEN.match

    while True:
        token = match(buffer, pos)
        start = pos
        if token is not None and (
            eof or token.end() < len(buffer) or token.lastgroup != "text"
        ):
            kind = token.lastgroup
            pos = token.end()
            if kind == "text":
                text = token.group()
                pending_text.append(
                    _decode_entities(text, base + start) if "&" in text else text
                )
                continue
            if kind == "cdata":
                pending_text.append(token.group("cdata_text"))
                continue
        elif eof and pos == len(buffer):
            kind = None  # end of input
        else:
            error = None
            if token is None and pos < len(buffer):
                error = _diagnose(buffer, pos, base, eof)
            if error is None:
                if eof:
                    raise AssertionError("token pattern and diagnosis disagree")
                # Refill: at least double what is left unconsumed.
                parts = [buffer[pos:]]
                have = len(parts[0])
                need = 2 * have or 1
                while have < need:
                    try:
                        chunk = next(chunks)
                    except StopIteration:
                        eof = True
                        break
                    parts.append(chunk)
                    have += len(chunk)
                base += pos
                buffer = "".join(parts)
                pos = 0
                continue
            if buffer.startswith("<![CDATA[", pos):
                raise error  # a CDATA section continues the text run
            kind = "error"
        # Any token but text and CDATA ends the pending text run.
        if pending_text:
            text = "".join(pending_text)
            pending_text.clear()
            if not open_tags:
                if text.strip():
                    raise XMLSyntaxError("text outside the root element", base + start)
            elif keep_whitespace or text.strip():
                yield ValueEvent(text)
        if kind == "close":
            name = token.group("close_tag")
            if not open_tags:
                raise XMLSyntaxError(f"unmatched closing tag </{name}>", base + pos)
            expected = open_tags.pop()
            if expected != name:
                raise XMLSyntaxError(
                    f"closing tag </{name}> does not match <{expected}>", base + pos
                )
            yield CloseEvent(name)
        elif kind == "open":
            name, span, empty = token.group("open_tag", "attributes", "empty")
            attributes = (
                _read_attributes(span, base + token.start("attributes")) if span else ()
            )
            if seen_root and not open_tags:
                raise XMLSyntaxError("multiple root elements", base + pos)
            seen_root = True
            yield OpenEvent(name, attributes)
            if empty:
                yield CloseEvent(name)
            else:
                open_tags.append(name)
        elif kind == "error":
            raise error
        elif kind is None:
            break

    if open_tags:
        raise XMLSyntaxError("unclosed elements at end of input", base + pos)
    if not seen_root:
        raise XMLSyntaxError("document has no root element", base + pos)


def parse_string(text: str, *, keep_whitespace: bool = False) -> list[Event]:
    """Parse a complete document and return the event list."""
    return list(parse_events(text, keep_whitespace=keep_whitespace))
