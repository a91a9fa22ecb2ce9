"""Unsigned LEB128 variable-length integers and width-bounded integers.

Varints encode the unbounded quantities of the stream format (tag ids,
text lengths, root subtree size).  Width-bounded integers implement the
paper's "recursive compression of the subtree size": a child subtree
can never be larger than its parent's content, so it is stored in just
enough bytes for the parent's size, typically one.
"""

from __future__ import annotations


class Truncated(ValueError):
    """The data ends inside an encoded value: more bytes may complete it.

    Every other ``ValueError`` a decoder here raises means the bytes
    present can never decode.
    """


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as LEB128."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: "bytes | bytearray | memoryview", offset: int = 0) -> tuple[int, int]:
    """Decode a LEB128 integer; return ``(value, next_offset)``.

    ``data`` may be any byte-indexable buffer (the streaming decoder
    passes its live buffer instead of copying it).  The single-byte
    case -- the overwhelming majority of the stream's tag ids, lengths
    and attribute counts -- returns before any loop state is set up.
    """
    size = len(data)
    if offset >= size:
        raise Truncated("truncated varint")
    byte = data[offset]
    if byte < 0x80:
        return byte, offset + 1
    result = byte & 0x7F
    shift = 7
    position = offset + 1
    while True:
        if position >= size:
            raise Truncated("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")


def varint_size(value: int) -> int:
    """Encoded size of ``value`` in bytes."""
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def width_for_bound(bound: int) -> int:
    """Bytes needed to store any integer in ``[0, bound]``."""
    width = 1
    while bound > 0xFF:
        bound >>= 8
        width += 1
    return width


def encode_bounded(value: int, bound: int) -> bytes:
    """Encode ``value`` in the fixed width implied by ``bound``."""
    if not 0 <= value <= bound:
        raise ValueError(f"value {value} outside [0, {bound}]")
    return value.to_bytes(width_for_bound(bound), "little")

