"""Eager tag-set decoders: the oracles of the decoder's lazy ids.

The card never builds a tag-id set while decoding (an
:class:`~repro.skipindex.decoder.OpenFrame` keeps raw bits and peels
them on demand), so these whole-bitmap unpackers exist only to check
it.
"""

from repro.skipindex.bitset import peel_ids, relative_width
from repro.skipindex.varint import Truncated


def ids_from_bitmap(bitmap, universe: int) -> frozenset[int]:
    """Unpack a bit array of ``universe`` bits into the set of tag ids."""
    value = int.from_bytes(bitmap, "little")
    return frozenset(peel_ids(value & ((1 << universe) - 1)))


def decode_relative(data, offset: int, parent_ids: frozenset[int]) -> tuple[frozenset[int], int]:
    """Decode a parent-relative tag set; return ``(ids, next_offset)``."""
    width = relative_width(parent_ids)
    if offset + width > len(data):
        raise Truncated("truncated relative bitmap")
    value = int.from_bytes(data[offset:offset + width], "little")
    # Stray padding bits beyond the support are ignored.
    value &= (1 << len(parent_ids)) - 1
    return frozenset(peel_ids(value, tuple(sorted(parent_ids)))), offset + width
