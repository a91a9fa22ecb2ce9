"""Unit and property tests for recursive bitmap compression."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skipindex.bitset import bitmap_from_ids, encode_relative, relative_width
from tests.skipindex.oracles import decode_relative, ids_from_bitmap


@given(st.sets(st.integers(min_value=0, max_value=63)))
def test_full_bitmap_round_trip(ids):
    bitmap = bitmap_from_ids(ids, 64)
    assert ids_from_bitmap(bitmap, 64) == frozenset(ids)


def test_bitmap_rejects_out_of_universe():
    with pytest.raises(ValueError):
        bitmap_from_ids({10}, 8)


@given(
    parent=st.sets(st.integers(min_value=0, max_value=40), min_size=0, max_size=20),
    data=st.data(),
)
def test_relative_round_trip(parent, data):
    parent = frozenset(parent)
    child = frozenset(
        data.draw(st.sets(st.sampled_from(sorted(parent)), max_size=len(parent)))
        if parent
        else set()
    )
    encoded = encode_relative(child, parent)
    assert len(encoded) == relative_width(parent)
    decoded, offset = decode_relative(encoded, 0, parent)
    assert decoded == child
    assert offset == len(encoded)


def test_relative_rejects_non_subset():
    with pytest.raises(ValueError):
        encode_relative(frozenset({5}), frozenset({1, 2}))


def test_relative_width_compresses():
    """The whole point: children cost popcount(parent) bits, not the
    dictionary width."""
    parent = frozenset(range(3))
    assert relative_width(parent) == 1  # vs e.g. 8 bytes for 64 tags
    assert relative_width(frozenset()) == 0


def test_empty_parent_zero_bytes():
    encoded = encode_relative(frozenset(), frozenset())
    assert encoded == b""
    decoded, offset = decode_relative(b"", 0, frozenset())
    assert decoded == frozenset() and offset == 0
