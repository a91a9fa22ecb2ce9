"""Tag-set bit arrays with parent-relative (recursive) compression.

A subtree's tag set is a subset of its parent subtree's tag set, so it
can be encoded using only ``popcount(parent)`` bits -- bit *i* of the
child array refers to the *i*-th set position of the parent array.
Applied at every level this is the paper's "recursive compression" of
the tag bit arrays: deep, narrow subtrees cost close to zero bits even
when the document dictionary is large.
"""

from __future__ import annotations


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
    the decoder's frames call it.
    """
    ids = []
    if support is None:
        while bits:
            low = bits & -bits
            ids.append(low.bit_length() - 1)
            bits ^= low
    else:
        while bits:
            low = bits & -bits
            ids.append(support[low.bit_length() - 1])
            bits ^= low
    return tuple(ids)


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

