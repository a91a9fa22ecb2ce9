"""Streaming decoder for the SXS format, with subtree skipping.

This is the card-side component: it consumes decrypted plaintext bytes
*incrementally* (the card never holds more than the current chunk), and
:meth:`SXSDecoder.next_item` returns one decoded
:class:`~repro.xmlstream.events.OpenEvent`, ``ValueEvent`` or
``CloseEvent`` at a time, or ``None`` when it needs more bytes.  After
an open, the element's skip metadata -- its tag-id set and content
size -- is the decoder's innermost :class:`OpenFrame`
(``decoder.frames[-1]``).  The caller decides and calls
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

The buffer is consumed through a read cursor, compacted by
:meth:`SXSDecoder.push`, and tokens are decoded directly off the live
buffer.  :meth:`SXSDecoder.next_item` is one Python frame per item and
runs no bookkeeping: one readiness flag covers its four stop states,
the index mode is decided once per dictionary, the one-byte varint
cases are inline, attribute-less opens and every close come from
per-dictionary event tables, and ``bytes_decoded`` is derived from the
cursor and the bytes skipped.  An open keeps its tag bit array as
raw bits; the byte widths of its children's fields come from popcounts,
so decoding never builds a tag-id set -- a frame decodes its ids on
demand (:attr:`OpenFrame.tags_inside`), for the skip test, a child
whose ids are read, or a :meth:`SXSDecoder.for_region` replay.
"""

from __future__ import annotations

from repro.skipindex.bitset import peel_ids
from repro.skipindex.encoder import IndexMode, MAGIC, OP_CLOSE, OP_OPEN, OP_TEXT
from repro.skipindex.tagdict import TagDictionary
from repro.skipindex.varint import Truncated, decode_varint
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent


class SXSFormatError(ValueError):
    """Raised on malformed SXS input."""


class OpenFrame:
    """One open element on the decoder's stack, with its skip metadata.

    ``content_size`` is the encoded size of the element's content and
    ``content_start`` its absolute offset, so a skip resumes at
    ``content_start + content_size``.  ``bits`` is the element's tag bit
    array as read, padding cleared: bit *i* is tag id *i* when
    ``parent`` is ``None`` (a full-width bitmap), else the *i*-th
    smallest id of the parent's set (recursive compression).  Both are
    ``None`` when the stream carries no index.  The id set, its sorted
    support and the widths of the children's fields are built only when
    first read; a skipped frame is also what
    :meth:`SXSDecoder.for_region` replays.
    """

    __slots__ = ("tag", "content_size", "content_start", "bits", "parent", "_ids", "_child_fields")

    def __init__(
        self,
        tag: str,
        content_size: int | None,
        content_start: int,
        bits: int | None,
        parent: "OpenFrame | None",
    ) -> None:
        self.tag = tag
        self.content_size = content_size
        self.content_start = content_start
        self.bits = bits
        self.parent = parent
        #: ``(support, id set)``, decoded together at the first read.
        self._ids: tuple[tuple[int, ...], frozenset[int]] | None = None
        #: ``(size width, bitmap width, bitmap mask)`` of the children's
        #: index fields, set by the decoder at the first child.
        self._child_fields: tuple[int, int, int] | None = None

    @property
    def support(self) -> tuple[int, ...]:
        """The tag ids inside, ascending: what a child's bits index."""
        ids = self._ids
        return (ids if ids is not None else self._decode_ids())[0]

    @property
    def tags_inside(self) -> frozenset[int] | None:
        """The set of tag *ids* occurring strictly inside the subtree
        (``None`` when the stream carries no index)."""
        if self.bits is None:
            return None
        ids = self._ids
        return (ids if ids is not None else self._decode_ids())[1]

    def _decode_ids(self) -> tuple[tuple[int, ...], frozenset[int]]:
        parent = self.parent
        support = peel_ids(self.bits, None if parent is None else parent.support)
        ids = self._ids = (support, frozenset(support))
        return ids


#: Consumed-prefix length above which :meth:`SXSDecoder.push` compacts
#: the buffer (when the prefix also dominates it).
_COMPACT_THRESHOLD = 1024


class SXSDecoder:
    """Incremental SXS reader (see module docstring).

    Bytes are supplied with :meth:`push` (with an absolute offset when
    resuming after a skip); items are pulled with :meth:`next_item`,
    which returns ``None`` when more bytes are needed.  ``frames``, a
    plain attribute like ``document_done``, is the stack of open
    elements, innermost last: its length is the depth, and right after
    an open its last frame holds the element's skip metadata.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._base = 0  # absolute offset of _buffer[0]
        self._pos = 0  # read cursor into _buffer
        self._skipped = 0  # bytes before the cursor that were never decoded
        self.mode: IndexMode | None = None
        self.dictionary: TagDictionary | None = None
        self.frames: list[OpenFrame] = []
        self.document_done = False
        self._pending_close: str | None = None  # tag of a skipped element
        self._skip_target: int | None = None
        #: No pending close, no skip target, not done, dictionary read:
        #: the one test :meth:`next_item` makes before decoding.
        self._ready = False
        # Per-dictionary tables (see _use_dictionary).
        self._plain_opens: list[OpenEvent] = []
        self._close_events: dict[str, CloseEvent] = {}
        self._indexed = False
        self._recursive = False
        self._root_width = 0
        self._root_mask = 0

    def _use_dictionary(self, mode: IndexMode, dictionary: TagDictionary) -> None:
        """Adopt the stream's index mode and tag dictionary.

        Events are immutable value objects, so every ``</patient>`` is
        one ``CloseEvent`` and every attribute-less ``<patient>`` one
        ``OpenEvent``, built here once per tag.
        """
        self.mode = mode
        self.dictionary = dictionary
        self._plain_opens = [OpenEvent(name) for name in dictionary]
        self._close_events = {name: CloseEvent(name) for name in dictionary}
        self._indexed = mode is not IndexMode.NONE
        self._recursive = mode is IndexMode.RECURSIVE
        self._root_width = (len(dictionary) + 7) // 8
        self._root_mask = (1 << len(dictionary)) - 1
        self._ready = True

    # -- input ----------------------------------------------------------

    @property
    def position(self) -> int:
        """Absolute offset of the next byte to decode."""
        return self._base + self._pos

    @property
    def bytes_decoded(self) -> int:
        """Bytes decoded so far: header and tokens, never skipped bytes."""
        return self._base + self._pos - self._skipped

    def push(self, data: bytes, offset: int | None = None) -> None:
        """Append plaintext bytes.

        ``offset`` is the absolute position of ``data[0]``; it defaults
        to the current end of the buffer.  After a skip, pushed data may
        begin before the resume offset (chunk alignment) -- the overlap
        is discarded.  A consumed prefix that dominates the buffer is
        dropped here, keeping compaction amortized O(1).
        """
        buffer = self._buffer
        end = self._base + len(buffer)
        if offset is None:
            offset = end
        if self._skip_target is not None and offset <= self._skip_target:
            # Resuming after a skip: drop bytes before the target.
            drop = self._skip_target - offset
            if drop >= len(data):
                return
            data = data[drop:]
            offset = self._skip_target
            if self._pos == len(buffer):
                buffer.clear()
                self._pos = 0
                self._base = offset
            self._skip_target = None
            self._ready = self._pending_close is None and not self.document_done
        elif offset != end:
            raise SXSFormatError(
                f"non-contiguous push: expected offset {end}, got {offset}"
            )
        consumed = self._pos
        if consumed >= _COMPACT_THRESHOLD and consumed * 2 >= len(buffer):
            del buffer[:consumed]
            self._base += consumed
            self._pos = 0
        buffer.extend(data)

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
        self._use_dictionary(mode, dictionary)
        self._pos = offset
        return True

    # -- item decoding -------------------------------------------------------

    def next_item(self) -> Event | None:
        """Decode and return the next event, or ``None`` if starved.

        Missing bytes starve; a complete token that cannot be decoded
        raises :class:`SXSFormatError`.  After an open, ``frames[-1]``
        holds the element's skip metadata until the next item is pulled.
        """
        if not self._ready:
            tag = self._pending_close
            if tag is not None:
                self._pending_close = None
                self._ready = self._skip_target is None and not self.document_done
                return self._close_events[tag]
            if self.dictionary is not None or not self._try_parse_header():
                return None  # waiting for post-skip bytes, finished, or no header yet
        buffer = self._buffer
        start = self._pos
        size = len(buffer)
        if start >= size:
            return None
        opcode = buffer[start]
        if opcode == OP_CLOSE:
            stack = self.frames
            if not stack:
                raise SXSFormatError("unbalanced CLOSE token")
            event: Event = self._close_events[stack.pop().tag]
            if not stack:
                self.document_done = True
                self._ready = False
            self._pos = start + 1
            return event
        if opcode != OP_OPEN and opcode != OP_TEXT:
            raise SXSFormatError(f"unknown opcode {opcode:#x}")
        try:
            # A text length or tag id, then (OPEN) the attribute count;
            # the one-byte varint cases are inline.
            end = start + 1
            if end >= size:
                return None
            value = buffer[end]
            if value < 0x80:
                end += 1
            else:
                value, end = decode_varint(buffer, end)
            if opcode == OP_TEXT:
                if size < end + value:
                    return None
                event = ValueEvent(buffer[end:end + value].decode("utf-8"))
                self._pos = end + value
                return event
            tag_id = value
            if end >= size:
                return None
            n_attrs = buffer[end]
            if n_attrs < 0x80:
                end += 1
            else:
                n_attrs, end = decode_varint(buffer, end)
            attributes: list[tuple[str, str]] | None = None
            if n_attrs:
                attributes = []
                name = None
                for _ in range(2 * n_attrs):  # a name, then its value
                    if end >= size:
                        return None
                    length = buffer[end]
                    if length < 0x80:
                        end += 1
                    else:
                        length, end = decode_varint(buffer, end)
                    if end + length > size:
                        return None
                    text = buffer[end:end + length].decode("utf-8")
                    end += length
                    if name is None:
                        name = text
                    else:
                        attributes.append((name, text))
                        name = None
            stack = self.frames
            parent = None
            if stack and self._recursive:
                # Size bounded by the parent's, bitmap on the parent's
                # support: both widths from the parent.
                parent = stack[-1]
                fields = parent._child_fields
                if fields is None:
                    assert parent.content_size is not None
                    count = parent.bits.bit_count()
                    fields = parent._child_fields = (
                        # varint.width_for_bound(content_size), inline
                        (parent.content_size.bit_length() + 7) // 8 or 1,
                        (count + 7) // 8,
                        (1 << count) - 1,
                    )
                size_width, bits_width, mask = fields
                bits_at = end + size_width
                if bits_at + bits_width > size:
                    return None
                if size_width == 1:
                    content_size: int | None = buffer[end]
                else:
                    content_size = int.from_bytes(buffer[end:bits_at], "little")
                end = bits_at + bits_width
                if bits_width == 1:
                    bits: int | None = buffer[bits_at] & mask
                else:
                    bits = int.from_bytes(buffer[bits_at:end], "little") & mask
            elif not self._indexed:
                content_size = bits = None
            else:  # FLAT, or the RECURSIVE root: a full-width bitmap
                content_size, end = decode_varint(buffer, end)
                if end + self._root_width > size:
                    return None
                bits_at, end = end, end + self._root_width
                bits = int.from_bytes(buffer[bits_at:end], "little") & self._root_mask
            try:
                event = self._plain_opens[tag_id]
            except IndexError:
                raise ValueError(f"unknown tag id {tag_id}") from None
            if attributes:
                event = OpenEvent(event.tag, tuple(attributes))
            stack.append(OpenFrame(event.tag, content_size, self._base + end, bits, parent))
            self._pos = end
            return event
        except Truncated:
            return None  # starved mid-token
        except ValueError as exc:  # bad UTF-8, over-long varint, unknown tag
            raise SXSFormatError(
                f"malformed token at offset {self._base + start}: {exc}"
            ) from exc

    # -- skipping ----------------------------------------------------------

    def skip_open_subtree(self) -> int:
        """Skip the content of the most recently opened element.

        Must be called right after :meth:`next_item` returned the
        corresponding :class:`OpenEvent` (before pulling more items).
        Returns the absolute resume offset; the next :meth:`next_item`
        yields the element's close.
        """
        if not self.frames:
            raise RuntimeError("no open element to skip")
        frame = self.frames.pop()
        if frame.content_size is None:
            raise RuntimeError("stream carries no skip index")
        if self._base + self._pos != frame.content_start:
            raise RuntimeError("content already consumed; too late to skip")
        resume = frame.content_start + frame.content_size
        self._skipped += frame.content_size  # skipped bytes are not decoded
        buffered_end = self._base + len(self._buffer)
        if resume <= buffered_end:
            self._pos = resume - self._base
        else:
            # Drop what is buffered and wait for the resume offset.
            self._buffer.clear()
            self._pos = 0
            self._base = resume
            self._skip_target = resume
        self._pending_close = frame.tag
        self._ready = False
        if not self.frames:
            self.document_done = True
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
        decoder._use_dictionary(mode, dictionary)
        decoder.frames.append(frame)
        decoder._base = decoder._skipped = frame.content_start
        decoder._skip_target = frame.content_start  # trims pre-region bytes
        decoder._ready = False
        return decoder

    @property
    def next_needed_offset(self) -> int:
        """Absolute offset of the first byte the decoder still needs."""
        if self._skip_target is not None:
            return self._skip_target
        return self._base + len(self._buffer)


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
