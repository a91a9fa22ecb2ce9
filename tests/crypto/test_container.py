"""Unit tests for the chunked encrypted container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.container import (
    IntegrityError,
    open_blob,
    open_chunk,
    seal_blob,
    seal_document,
)
from repro.crypto.keys import DocumentKeys

KEYS = DocumentKeys(b"secret-material!")
OTHER = DocumentKeys(b"other-material!!")


def _open_all(container, keys=KEYS):
    return b"".join(
        open_chunk(container.header, i, blob, keys)
        for i, blob in enumerate(container.chunks)
    )


@settings(max_examples=50, deadline=None)
@given(st.binary(min_size=0, max_size=500), st.integers(min_value=8, max_value=100))
def test_seal_open_round_trip(plaintext, chunk_size):
    container = seal_document(plaintext, "doc", 1, KEYS, chunk_size=chunk_size)
    container.header.verify(KEYS)
    assert _open_all(container) == plaintext


def test_chunk_count_and_sizes():
    container = seal_document(b"x" * 250, "doc", 1, KEYS, chunk_size=100)
    assert container.header.chunk_count == 3
    assert container.header.total_length == 250


def test_stored_size_includes_tags_and_padding():
    container = seal_document(b"x" * 100, "doc", 1, KEYS, chunk_size=100)
    assert container.stored_size > 100


def test_header_verify_rejects_wrong_key():
    container = seal_document(b"data", "doc", 1, KEYS)
    with pytest.raises(IntegrityError):
        container.header.verify(OTHER)


def test_chunk_rejects_wrong_key():
    container = seal_document(b"data", "doc", 1, KEYS)
    with pytest.raises(IntegrityError):
        open_chunk(container.header, 0, container.chunks[0], OTHER)


def test_chunk_rejects_bitflip():
    container = seal_document(b"data" * 10, "doc", 1, KEYS)
    blob = bytearray(container.chunks[0])
    blob[0] ^= 1
    with pytest.raises(IntegrityError):
        open_chunk(container.header, 0, bytes(blob), KEYS)


def test_chunk_rejects_index_swap():
    container = seal_document(b"d" * 200, "doc", 1, KEYS, chunk_size=100)
    with pytest.raises(IntegrityError):
        open_chunk(container.header, 0, container.chunks[1], KEYS)


def test_chunk_rejects_cross_document_substitution():
    a = seal_document(b"a" * 100, "doc-a", 1, KEYS, chunk_size=100)
    b = seal_document(b"b" * 100, "doc-b", 1, KEYS, chunk_size=100)
    with pytest.raises(IntegrityError):
        open_chunk(a.header, 0, b.chunks[0], KEYS)


def test_chunk_rejects_version_mixing():
    v1 = seal_document(b"v1" * 50, "doc", 1, KEYS, chunk_size=100)
    v2 = seal_document(b"v2" * 50, "doc", 2, KEYS, chunk_size=100)
    with pytest.raises(IntegrityError):
        open_chunk(v2.header, 0, v1.chunks[0], KEYS)


def test_chunk_index_out_of_range():
    container = seal_document(b"data", "doc", 1, KEYS)
    with pytest.raises(IntegrityError):
        open_chunk(container.header, 5, container.chunks[0], KEYS)


def test_blob_round_trip():
    blob = seal_blob(b"rule line", "doc#rule:0", 3, KEYS)
    assert open_blob(blob, "doc#rule:0", 3, KEYS) == b"rule line"


def test_blob_rejects_label_confusion():
    blob = seal_blob(b"rule line", "doc#rule:0", 3, KEYS)
    with pytest.raises(IntegrityError):
        open_blob(blob, "doc#rule:1", 3, KEYS)
    with pytest.raises(IntegrityError):
        open_blob(blob, "doc#rule:0", 4, KEYS)


def test_empty_document_seals():
    container = seal_document(b"", "doc", 1, KEYS)
    assert container.header.chunk_count == 1
    assert _open_all(container) == b""
