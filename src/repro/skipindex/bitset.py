"""Tag-set bit arrays with parent-relative (recursive) compression.

A subtree's tag set is a subset of its parent subtree's tag set, so it
can be encoded using only ``popcount(parent)`` bits -- bit *i* of the
child array refers to the *i*-th set position of the parent array.
Applied at every level this is the paper's "recursive compression" of
the tag bit arrays: deep, narrow subtrees cost close to zero bits even
when the document dictionary is large.
"""

from __future__ import annotations

from repro.skipindex.varint import Truncated


def bitmap_from_ids(ids: frozenset[int] | set[int], universe: int) -> bytes:
    """Pack tag ids into a little-endian bit array of ``universe`` bits."""
    out = bytearray((universe + 7) // 8)
    for tag_id in ids:
        if not 0 <= tag_id < universe:
            raise ValueError(f"tag id {tag_id} outside universe {universe}")
        out[tag_id // 8] |= 1 << (tag_id % 8)
    return bytes(out)


def peel_ids(bits: int, support: "tuple[int, ...] | None" = None) -> tuple[int, ...]:
    """The ids of the set bits of ``bits``, ascending.

    Bit *i* stands for id *i*, or for ``support[i]`` when a sorted
    parent support is given.  Peels one set bit per step, so the cost is
    the population count, not the width.  The one bit-peeling routine:
    the decoder's frames and both unpackers below call it.
    """
    positions = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    if support is None:
        return tuple(positions)
    return tuple([support[position] for position in positions])


def ids_from_bitmap(bitmap: "bytes | bytearray | memoryview", universe: int) -> frozenset[int]:
    """Unpack a bit array of ``universe`` bits into the set of tag ids."""
    value = int.from_bytes(bitmap, "little")
    return frozenset(peel_ids(value & ((1 << universe) - 1)))


def relative_width(parent_ids: frozenset[int]) -> int:
    """Encoded size in bytes of a child tag set under ``parent_ids``."""
    return (len(parent_ids) + 7) // 8


def encode_relative(child_ids: frozenset[int], parent_ids: frozenset[int]) -> bytes:
    """Encode ``child_ids`` on the support of ``parent_ids``.

    Requires ``child_ids <= parent_ids`` -- guaranteed by construction
    because a subtree's tags are a subset of its parent subtree's tags.
    """
    if not child_ids <= parent_ids:
        raise ValueError("child tag set is not a subset of the parent's")
    support = sorted(parent_ids)
    positions = {tag_id: index for index, tag_id in enumerate(support)}
    out = bytearray(relative_width(parent_ids))
    for tag_id in child_ids:
        position = positions[tag_id]
        out[position // 8] |= 1 << (position % 8)
    return bytes(out)


def decode_relative(
    data: "bytes | bytearray | memoryview",
    offset: int,
    parent_ids: frozenset[int],
) -> tuple[frozenset[int], int]:
    """Decode a parent-relative tag set; return ``(ids, next_offset)``."""
    width = relative_width(parent_ids)
    if offset + width > len(data):
        raise Truncated("truncated relative bitmap")
    value = int.from_bytes(data[offset:offset + width], "little")
    # Stray padding bits beyond the support are ignored (as the
    # bit-by-bit decoder did).
    value &= (1 << len(parent_ids)) - 1
    return frozenset(peel_ids(value, tuple(sorted(parent_ids)))), offset + width
