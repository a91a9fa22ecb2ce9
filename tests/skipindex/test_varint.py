"""Unit and property tests for integer encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.skipindex.varint import (
    Truncated,
    decode_varint,
    encode_bounded,
    encode_varint,
    varint_size,
    width_for_bound,
)


def decode_bounded(data: bytes, offset: int, bound: int) -> tuple[int, int]:
    """The oracle of ``encode_bounded``: decode a width-bounded integer;
    return ``(value, next_offset)``."""
    width = width_for_bound(bound)
    if offset + width > len(data):
        raise Truncated("truncated bounded integer")
    return int.from_bytes(data[offset:offset + width], "little"), offset + width


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_varint_round_trip(value):
    encoded = encode_varint(value)
    decoded, offset = decode_varint(encoded)
    assert decoded == value
    assert offset == len(encoded) == varint_size(value)


def test_varint_known_encodings():
    assert encode_varint(0) == b"\x00"
    assert encode_varint(127) == b"\x7f"
    assert encode_varint(128) == b"\x80\x01"
    assert encode_varint(300) == b"\xac\x02"


def test_varint_rejects_negative():
    with pytest.raises(ValueError):
        encode_varint(-1)


def test_varint_rejects_truncated():
    with pytest.raises(ValueError):
        decode_varint(b"\x80")


def test_varint_rejects_overlong():
    with pytest.raises(ValueError):
        decode_varint(b"\x80" * 11)


def test_width_for_bound():
    assert width_for_bound(0) == 1
    assert width_for_bound(255) == 1
    assert width_for_bound(256) == 2
    assert width_for_bound(65535) == 2
    assert width_for_bound(65536) == 3


@given(st.integers(min_value=0, max_value=10**6))
def test_bounded_round_trip(value):
    bound = max(value, 1)
    encoded = encode_bounded(value, bound)
    decoded, offset = decode_bounded(encoded, 0, bound)
    assert decoded == value
    assert offset == len(encoded) == width_for_bound(bound)


def test_bounded_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_bounded(300, 255)
    with pytest.raises(ValueError):
        encode_bounded(-1, 255)


def test_bounded_rejects_truncated():
    with pytest.raises(ValueError):
        decode_bounded(b"\x01", 0, 65535)
