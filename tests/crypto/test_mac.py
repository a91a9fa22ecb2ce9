"""Unit tests for positional MAC binding."""

import hashlib
import hmac

import pytest

from repro.crypto import mac
from repro.crypto.mac import chunk_mac, header_mac, keyed_digest

KEY = b"k" * 16


def _base():
    return chunk_mac(KEY, "doc", 1, 0, 10, b"ciphertext")


def test_deterministic():
    assert _base() == _base()


def test_binds_document_id():
    assert _base() != chunk_mac(KEY, "other", 1, 0, 10, b"ciphertext")


def test_binds_version():
    assert _base() != chunk_mac(KEY, "doc", 2, 0, 10, b"ciphertext")


def test_binds_chunk_index():
    assert _base() != chunk_mac(KEY, "doc", 1, 1, 10, b"ciphertext")


def test_binds_chunk_count():
    assert _base() != chunk_mac(KEY, "doc", 1, 0, 9, b"ciphertext")


def test_binds_ciphertext():
    assert _base() != chunk_mac(KEY, "doc", 1, 0, 10, b"Ciphertext")


def test_binds_key():
    assert _base() != chunk_mac(b"K" * 16, "doc", 1, 0, 10, b"ciphertext")


def test_tag_length_parameter():
    assert len(chunk_mac(KEY, "d", 1, 0, 1, b"", length=4)) == 4
    assert len(chunk_mac(KEY, "d", 1, 0, 1, b"", length=16)) == 16


def test_header_mac_binds_fields():
    base = header_mac(KEY, "doc", 1, 10, 96, b"payload")
    assert base != header_mac(KEY, "doc", 1, 11, 96, b"payload")
    assert base != header_mac(KEY, "doc", 1, 10, 64, b"payload")
    assert base != header_mac(KEY, "doc", 2, 10, 96, b"payload")


def test_header_and_chunk_domains_separated():
    chunk = chunk_mac(KEY, "doc", 1, 0, 10, b"x")
    header = header_mac(KEY, "doc", 1, 0, 10, b"x")
    assert chunk != header


# -- the HMAC-SHA-256 kernel -------------------------------------------------

#: RFC 4231 test cases 1-4, 6 and 7: (key, data, HMAC-SHA-256).  Case 5
#: tests a truncated output and is left out; 6 and 7 take a 131-byte
#: key, which HMAC hashes down before padding.
RFC_4231 = {
    1: (b"\x0b" * 20, b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    2: (b"Jefe", b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    3: (b"\xaa" * 20, b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    4: (bytes(range(1, 26)), b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    6: (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    7: (b"\xaa" * 131,
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being "
        b"used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
}


@pytest.mark.parametrize("case", sorted(RFC_4231))
def test_keyed_digest_matches_rfc_4231(case):
    key, data, expected = RFC_4231[case]
    assert keyed_digest(key, data).hex() == expected
    assert keyed_digest(key, data).hex() == expected  # memoized key


@pytest.mark.parametrize("key_length", [0, 16, 64, 65])
def test_keyed_digest_matches_hmac(key_length):
    # 64 bytes is SHA-256's block: a longer key is hashed first.
    key = bytes((7 * index + 1) % 256 for index in range(key_length))
    for message in (b"", b"m", b"x" * 200):
        assert keyed_digest(key, message) == hmac.new(key, message, hashlib.sha256).digest()


def test_keyed_digest_survives_the_memo_clear():
    keys = [index.to_bytes(4, "big") * 4 for index in range(mac._BASE_LIMIT + 3)]
    for key in keys + keys[:3]:  # past the clear, then keys memoized before it
        assert keyed_digest(key, b"msg:" + key) == hmac.new(
            key, b"msg:" + key, hashlib.sha256
        ).digest()
