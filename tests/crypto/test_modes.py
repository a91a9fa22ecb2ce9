"""Unit tests for CBC mode with PKCS#7 padding on ``XTEACipher``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.xtea import BLOCK_SIZE, PaddingError, XTEACipher, xtea_encrypt_block

KEY = bytes(range(16))
IV = bytes(range(BLOCK_SIZE))
CIPHER = XTEACipher.for_key(KEY)


def _encrypt_unpadded_block(block: bytes) -> bytes:
    """A one-block CBC ciphertext that decrypts to ``block`` as is."""
    return xtea_encrypt_block(bytes(a ^ b for a, b in zip(block, IV)), KEY)


@given(st.binary(max_size=200))
def test_cbc_round_trip(plaintext):
    assert CIPHER.cbc_decrypt(CIPHER.cbc_encrypt(plaintext, IV), IV) == plaintext


@given(st.binary(max_size=64))
def test_padding_round_trip(data):
    ciphertext = CIPHER.cbc_encrypt(data, IV)
    assert len(ciphertext) == (len(data) // BLOCK_SIZE + 1) * BLOCK_SIZE
    assert CIPHER.cbc_decrypt(ciphertext, IV) == data


def test_padding_always_added():
    assert len(CIPHER.cbc_encrypt(b"x" * BLOCK_SIZE, IV)) == 2 * BLOCK_SIZE


def test_bad_padding_rejected():
    with pytest.raises(PaddingError):
        CIPHER.cbc_decrypt(_encrypt_unpadded_block(b"\x00" * BLOCK_SIZE), IV)
    with pytest.raises(PaddingError):
        CIPHER.cbc_decrypt(_encrypt_unpadded_block(b"1234567\x09"), IV)
    with pytest.raises(PaddingError):
        CIPHER.cbc_decrypt(b"", IV)


def test_iv_changes_ciphertext():
    other_iv = bytes([IV[0] ^ 1]) + IV[1:]
    assert CIPHER.cbc_encrypt(b"hello", IV) != CIPHER.cbc_encrypt(b"hello", other_iv)


def test_cbc_chains_blocks():
    # Two identical plaintext blocks must encrypt differently under CBC.
    plaintext = b"A" * BLOCK_SIZE * 2
    ciphertext = CIPHER.cbc_encrypt(plaintext, IV)
    assert ciphertext[:BLOCK_SIZE] != ciphertext[BLOCK_SIZE:2 * BLOCK_SIZE]


def test_bad_iv_size_rejected():
    with pytest.raises(ValueError):
        CIPHER.cbc_encrypt(b"x", b"short")
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"x" * BLOCK_SIZE, b"short")


def test_non_block_ciphertext_rejected():
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"123", IV)
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"", IV)
