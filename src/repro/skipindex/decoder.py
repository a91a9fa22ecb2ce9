"""Streaming decoder for the SXS format, with subtree skipping.

This is the card-side component: it consumes decrypted plaintext bytes
*incrementally* (the card never holds more than the current chunk), and
:meth:`SXSDecoder.next_item` returns one decoded
:class:`~repro.xmlstream.events.OpenEvent`, ``ValueEvent`` or
``CloseEvent`` at a time, or ``None`` when it needs more bytes.  After
an open, the element's skip metadata -- its tag-id set and content
size -- is the decoder's innermost :class:`OpenFrame`
(:attr:`SXSDecoder.frame`).  The caller decides and calls
:meth:`SXSDecoder.skip_open_subtree`, after which the decoder discards
buffered bytes in the region, yields the element's close next, and
reports the absolute resume offset so the proxy can stop transferring
the skipped chunks at all.  A skipped frame later seeds
:meth:`SXSDecoder.for_region` for the refetch pass.

Missing bytes only ever starve the decoder; bytes that are all present
but cannot decode (bad UTF-8, an over-long varint, a repeated
dictionary name, an unknown tag id or opcode) raise
:class:`SXSFormatError` at once, so malformed input is never mistaken
for a truncated document.

The buffer is consumed through a read cursor with amortized compaction
(no ``del buffer[:n]`` per token) and tokens are decoded directly off
the live buffer -- the seed copied the entire buffered region once per
OPEN token.  Varint runs decode in one batched pass per token, and the
sorted support of a parent's tag set is computed once per parent
rather than once per child bitmap.
"""

from __future__ import annotations

from repro.skipindex.bitset import decode_relative, ids_from_bitmap
from repro.skipindex.encoder import IndexMode, MAGIC, OP_CLOSE, OP_OPEN, OP_TEXT
from repro.skipindex.tagdict import TagDictionary
from repro.skipindex.varint import Truncated, decode_varint, width_for_bound
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent


class SXSFormatError(ValueError):
    """Raised on malformed SXS input."""


class OpenFrame:
    """One open element on the decoder's stack, with its skip metadata.

    ``tags_inside`` is the set of tag *ids* occurring strictly inside
    the subtree and ``content_size`` the encoded size of its content
    (both ``None`` when the stream carries no index); ``content_start``
    is the absolute offset of the content, so a skip resumes at
    ``content_start + content_size``.  A skipped frame is also what
    :meth:`SXSDecoder.for_region` replays.
    """

    __slots__ = (
        "tag",
        "tags_inside",
        "content_size",
        "content_start",
        "support",
        "child_width",
    )

    def __init__(
        self,
        tag: str,
        tags_inside: frozenset[int] | None,
        content_size: int | None,
        content_start: int,
    ) -> None:
        self.tag = tag
        self.tags_inside = tags_inside
        self.content_size = content_size
        self.content_start = content_start
        #: Sorted ``tags_inside`` (computed on first child, reused by
        #: every sibling's relative bitmap).
        self.support: tuple[int, ...] | None = None
        #: Byte width of child size fields (derived from content_size
        #: once per parent instead of once per child).
        self.child_width: int | None = None


#: Consumed-prefix length above which the buffer is compacted (when the
#: prefix also dominates the buffer, keeping compaction amortized O(1)).
_COMPACT_THRESHOLD = 1024


class SXSDecoder:
    """Incremental SXS reader (see module docstring).

    Bytes are supplied with :meth:`push` (with an absolute offset when
    resuming after a skip); items are pulled with :meth:`next_item`,
    which returns ``None`` when more bytes are needed.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._base = 0  # absolute offset of _buffer[0]
        self._pos = 0  # read cursor into _buffer
        self.mode: IndexMode | None = None
        self.dictionary: TagDictionary | None = None
        self._stack: list[OpenFrame] = []
        self._pending_close: str | None = None  # tag of a skipped element
        self._skip_target: int | None = None
        self._document_done = False
        self.bytes_decoded = 0
        # Per-tag event memos: events are immutable value objects, so
        # every </patient> can be the same CloseEvent instance (ditto
        # attribute-less opens).  The tag universe is the dictionary's.
        self._close_events: dict[str, CloseEvent] = {}
        self._plain_opens: dict[str, OpenEvent] = {}

    def _close_event(self, tag: str) -> CloseEvent:
        event = self._close_events.get(tag)
        if event is None:
            event = self._close_events[tag] = CloseEvent(tag)
        return event

    # -- input ----------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute offset of the next byte to decode."""
        return self._base + self._pos

    def push(self, data: bytes, offset: int | None = None) -> None:
        """Append plaintext bytes.

        ``offset`` is the absolute position of ``data[0]``; it defaults
        to the current end of the buffer.  After a skip, pushed data may
        begin before the resume offset (chunk alignment) -- the overlap
        is discarded.
        """
        end = self._base + len(self._buffer)
        if offset is None:
            offset = end
        if self._skip_target is not None and offset <= self._skip_target:
            # Resuming after a skip: drop bytes before the target.
            drop = self._skip_target - offset
            if drop >= len(data):
                return
            data = data[drop:]
            offset = self._skip_target
            if self._pos == len(self._buffer):
                self._buffer.clear()
                self._pos = 0
                self._base = offset
            self._skip_target = None
        elif offset != end:
            raise SXSFormatError(
                f"non-contiguous push: expected offset {end}, got {offset}"
            )
        self._buffer.extend(data)

    def _advance(self, count: int) -> None:
        """Move the cursor past ``count`` decoded bytes."""
        position = self._pos + count
        self._pos = position
        self.bytes_decoded += count
        if position >= _COMPACT_THRESHOLD and position * 2 >= len(self._buffer):
            del self._buffer[:position]
            self._base += position
            self._pos = 0

    # -- header -----------------------------------------------------------

    def _try_parse_header(self) -> bool:
        if len(self._buffer) - self._pos < len(MAGIC) + 1:
            return False
        start = self._pos
        buffer = self._buffer
        if buffer[start:start + len(MAGIC)] != MAGIC:
            raise SXSFormatError("bad magic")
        try:
            mode = IndexMode(buffer[start + len(MAGIC)])
        except ValueError as exc:
            raise SXSFormatError("unknown index mode") from exc
        try:
            # Decoded in place off the live bytearray -- the seed copied
            # the whole buffered stream here once per session.
            dictionary, offset = TagDictionary.decode(
                buffer, start + len(MAGIC) + 1
            )
        except Truncated:
            return False  # need more bytes
        except ValueError as exc:
            raise SXSFormatError(f"malformed tag dictionary: {exc}") from exc
        self.mode = mode
        self.dictionary = dictionary
        self._advance(offset - start)
        return True

    # -- item decoding -------------------------------------------------------

    def next_item(self) -> Event | None:
        """Decode and return the next event, or ``None`` if starved.

        Missing bytes starve; a complete token that cannot be decoded
        raises :class:`SXSFormatError`.  After an open, :attr:`frame`
        holds the element's skip metadata until the next item is pulled.
        """
        if self._pending_close is not None:
            tag, self._pending_close = self._pending_close, None
            return self._close_event(tag)
        if self._skip_target is not None or self._document_done:
            return None  # waiting for post-skip bytes, or finished
        if self.dictionary is None and not self._try_parse_header():
            return None
        buffer = self._buffer
        start = self._pos
        if start >= len(buffer):
            return None
        opcode = buffer[start]
        if opcode == OP_CLOSE:
            if not self._stack:
                raise SXSFormatError("unbalanced CLOSE token")
            frame = self._stack.pop()
            self._advance(1)
            if not self._stack:
                self._document_done = True
            return self._close_event(frame.tag)
        if opcode != OP_OPEN and opcode != OP_TEXT:
            raise SXSFormatError(f"unknown opcode {opcode:#x}")
        try:
            if opcode == OP_OPEN:
                return self._decode_open(buffer, start)
            length, after = decode_varint(buffer, start + 1)
            if len(buffer) < after + length:
                return None
            # Decode straight off the buffer via an unnamed temporary
            # view -- it is released before _advance may compact (a
            # live exported view would make the bytearray resize raise
            # BufferError).
            text = str(memoryview(buffer)[after:after + length], "utf-8")
            self._advance(after - start + length)
            return ValueEvent(text)
        except Truncated:
            return None  # starved mid-token
        except ValueError as exc:  # bad UTF-8, over-long varint, unknown tag
            raise SXSFormatError(
                f"malformed token at offset {self._base + start}: {exc}"
            ) from exc

    def _decode_open(self, buffer: bytearray, start: int) -> OpenEvent | None:
        """Decode the OPEN token at ``start`` and push its frame."""
        dictionary = self.dictionary
        assert dictionary is not None
        size = len(buffer)
        # Batched field decode off the live buffer: the one-byte varint
        # case (nearly every tag id and length) is inlined.
        position = start + 1
        if position >= size:
            return None
        byte = buffer[position]
        if byte < 0x80:
            tag_id, offset = byte, position + 1
        else:
            tag_id, offset = decode_varint(buffer, position)
        if offset >= size:
            return None
        byte = buffer[offset]
        if byte < 0x80:
            n_attrs, offset = byte, offset + 1
        else:
            n_attrs, offset = decode_varint(buffer, offset)
        attributes: list[tuple[str, str]] = []
        for _ in range(n_attrs):
            name_len, offset = decode_varint(buffer, offset)
            if offset + name_len > size:
                return None
            name = str(memoryview(buffer)[offset:offset + name_len], "utf-8")
            offset += name_len
            value_len, offset = decode_varint(buffer, offset)
            if offset + value_len > size:
                return None
            value = str(memoryview(buffer)[offset:offset + value_len], "utf-8")
            offset += value_len
            attributes.append((name, value))
        tags_inside: frozenset[int] | None = None
        content_size: int | None = None
        mode = self.mode
        if mode is IndexMode.FLAT or (mode is IndexMode.RECURSIVE and not self._stack):
            content_size, offset = decode_varint(buffer, offset)
            width = (len(dictionary) + 7) // 8
            if offset + width > size:
                return None
            tags_inside = ids_from_bitmap(
                buffer[offset:offset + width], len(dictionary)
            )
            offset += width
        elif mode is IndexMode.RECURSIVE:
            parent = self._stack[-1]
            assert parent.content_size is not None
            assert parent.tags_inside is not None
            width = parent.child_width
            if width is None:
                width = width_for_bound(parent.content_size)
                parent.child_width = width
            if offset + width > size:
                return None
            if width == 1:
                content_size = buffer[offset]
                offset += 1
            else:
                content_size = int.from_bytes(
                    buffer[offset:offset + width], "little"
                )
                offset += width
            if parent.support is None:
                parent.support = tuple(sorted(parent.tags_inside))
            tags_inside, offset = decode_relative(
                buffer, offset, parent.tags_inside, parent.support
            )
        try:
            tag = dictionary.name_of(tag_id)
        except IndexError:
            raise ValueError(f"unknown tag id {tag_id}") from None
        self._advance(offset - start)
        self._stack.append(
            OpenFrame(tag, tags_inside, content_size, self._base + self._pos)
        )
        if attributes:
            return OpenEvent(tag, tuple(attributes))
        event = self._plain_opens.get(tag)
        if event is None:
            event = self._plain_opens[tag] = OpenEvent(tag)
        return event

    # -- skipping ----------------------------------------------------------

    @property
    def frame(self) -> OpenFrame:
        """The innermost open element (IndexError when none is open)."""
        return self._stack[-1]

    def skip_open_subtree(self) -> int:
        """Skip the content of the most recently opened element.

        Must be called right after :meth:`next_item` returned the
        corresponding :class:`OpenEvent` (before pulling more items).
        Returns the absolute resume offset; the next :meth:`next_item`
        yields the element's close.
        """
        if not self._stack:
            raise RuntimeError("no open element to skip")
        frame = self._stack.pop()
        if frame.content_size is None:
            raise RuntimeError("stream carries no skip index")
        if self._base + self._pos != frame.content_start:
            raise RuntimeError("content already consumed; too late to skip")
        resume = frame.content_start + frame.content_size
        buffered_end = self._base + len(self._buffer)
        if resume <= buffered_end:
            skipped = resume - (self._base + self._pos)
            self._advance(skipped)
            self.bytes_decoded -= skipped  # skipped bytes are not decoded
        else:
            # Bytes in the buffer were never counted as decoded; just
            # drop them and wait for the resume offset.
            self._buffer.clear()
            self._pos = 0
            self._base = resume
            self._skip_target = resume
        self._pending_close = frame.tag
        if not self._stack:
            self._document_done = True
        return resume

    @classmethod
    def for_region(
        cls, dictionary: TagDictionary, mode: IndexMode, frame: OpenFrame
    ) -> "SXSDecoder":
        """A decoder seeded to read the content of a skipped ``frame``.

        Used by the refetch pass: recursive bitmaps and bounded sizes
        need the parent context, which the frame holds.  The region
        ends at the element's own close (``document_done``).
        """
        decoder = cls()
        decoder.mode = mode
        decoder.dictionary = dictionary
        decoder._stack.append(frame)
        decoder._base = frame.content_start
        decoder._skip_target = frame.content_start  # trims pre-region bytes
        return decoder

    @property
    def next_needed_offset(self) -> int:
        """Absolute offset of the first byte the decoder still needs."""
        if self._skip_target is not None:
            return self._skip_target
        return self._base + len(self._buffer)

    @property
    def document_done(self) -> bool:
        return self._document_done

    @property
    def depth(self) -> int:
        return len(self._stack)


def decode_document(data: bytes) -> list[Event]:
    """Decode a complete SXS byte string back into events."""
    decoder = SXSDecoder()
    decoder.push(data)
    events = list(iter(decoder.next_item, None))
    if not decoder.document_done:
        raise SXSFormatError("truncated document")
    if decoder.position != len(data):
        raise SXSFormatError(f"{len(data) - decoder.position} bytes after the document")
    return events
