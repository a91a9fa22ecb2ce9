"""Unit tests for the chunked encrypted container."""

from dataclasses import replace

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
from repro.crypto.mac import chunk_mac

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


# -- every tamper path and its exact message ---------------------------------

LABEL = "doc#rule:0"
DOC = seal_document(bytes(range(250)), "doc", 1, KEYS, chunk_size=100)
BLOB = seal_blob(b"rule line", LABEL, 3, KEYS)


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _chunk(ciphertext: bytes, index: int = 0, header=DOC.header) -> bytes:
    """``ciphertext`` with a valid tag for ``index`` under ``header``."""
    return ciphertext + chunk_mac(
        KEYS.mac, header.doc_id, header.version, index, header.chunk_count,
        ciphertext, header.tag_length,
    )


def _blob(ciphertext: bytes) -> bytes:
    return ciphertext + chunk_mac(KEYS.mac, LABEL, 3, 0, 1, ciphertext)


def _open0(blob: bytes, header=DOC.header, index: int = 0) -> bytes:
    return open_chunk(header, index, blob, KEYS)


TAMPER_CASES = {
    # chunks
    "chunk no longer than its tag": (
        lambda: _open0(DOC.chunks[0][:8]), "chunk too short"),
    "chunk tag byte flipped": (
        lambda: _open0(_flip(DOC.chunks[0], -1)), "chunk 0 MAC mismatch for 'doc'"),
    "chunk ciphertext byte flipped": (
        lambda: _open0(_flip(DOC.chunks[0], 0)), "chunk 0 MAC mismatch for 'doc'"),
    "chunk at the wrong index": (
        lambda: _open0(DOC.chunks[1]), "chunk 0 MAC mismatch for 'doc'"),
    "chunk of another version": (
        lambda: _open0(seal_document(bytes(250), "doc", 2, KEYS, 100).chunks[0]),
        "chunk 0 MAC mismatch for 'doc'"),
    "chunk under another chunk count": (
        lambda: _open0(seal_document(bytes(150), "doc", 1, KEYS, 100).chunks[0]),
        "chunk 0 MAC mismatch for 'doc'"),
    "chunk of another document": (
        lambda: _open0(seal_document(bytes(250), "other", 1, KEYS, 100).chunks[0]),
        "chunk 0 MAC mismatch for 'doc'"),
    "chunk index past the end": (
        lambda: _open0(DOC.chunks[0], index=3), "chunk index 3 out of range"),
    "negative chunk index": (
        lambda: _open0(DOC.chunks[0], index=-1), "chunk index -1 out of range"),
    "chunk with a valid tag and bad padding": (
        lambda: _open0(_chunk(bytes(8))), "chunk 0 failed to decrypt"),
    "chunk with a valid tag and a partial block": (
        lambda: _open0(_chunk(bytes(9))), "chunk 0 failed to decrypt"),
    "chunk with a valid tag and the wrong length": (
        lambda: _open0(seal_document(bytes(90), "doc", 1, KEYS, 100).chunks[0],
                       header=seal_document(bytes(95), "doc", 1, KEYS, 100).header),
        "chunk 0 has unexpected length"),
    # blobs
    "blob no longer than its tag": (
        lambda: open_blob(BLOB[:8], LABEL, 3, KEYS), "blob 'doc#rule:0' too short"),
    "blob tag byte flipped": (
        lambda: open_blob(_flip(BLOB, -1), LABEL, 3, KEYS),
        "blob MAC mismatch for 'doc#rule:0'"),
    "blob ciphertext byte flipped": (
        lambda: open_blob(_flip(BLOB, 0), LABEL, 3, KEYS),
        "blob MAC mismatch for 'doc#rule:0'"),
    "blob of another version": (
        lambda: open_blob(BLOB, LABEL, 4, KEYS), "blob MAC mismatch for 'doc#rule:0'"),
    "blob under another label": (
        lambda: open_blob(BLOB, "doc#rule:1", 3, KEYS),
        "blob MAC mismatch for 'doc#rule:1'"),
    "blob with a valid tag and bad padding": (
        lambda: open_blob(_blob(bytes(8)), LABEL, 3, KEYS),
        "blob 'doc#rule:0' failed to decrypt"),
    "blob with a valid tag and a partial block": (
        lambda: open_blob(_blob(bytes(9)), LABEL, 3, KEYS),
        "blob 'doc#rule:0' failed to decrypt"),
    # the header
    "header tag byte flipped": (
        lambda: replace(DOC.header, tag=_flip(DOC.header.tag, 0)).verify(KEYS),
        "header MAC mismatch for 'doc'"),
    "header with another chunk count": (
        lambda: replace(DOC.header, chunk_count=2).verify(KEYS),
        "header MAC mismatch for 'doc'"),
    "header with another total length": (
        lambda: replace(DOC.header, total_length=249).verify(KEYS),
        "header MAC mismatch for 'doc'"),
    "header under another key": (
        lambda: DOC.header.verify(OTHER), "header MAC mismatch for 'doc'"),
}


@pytest.mark.parametrize("case", list(TAMPER_CASES))
def test_tamper_raises_integrity_error_with_exact_message(case):
    attempt, message = TAMPER_CASES[case]
    with pytest.raises(IntegrityError) as caught:
        attempt()
    assert str(caught.value) == message
