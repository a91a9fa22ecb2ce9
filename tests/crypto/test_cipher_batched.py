"""Crypto-mode coverage for the batched (bit-sliced) XTEA/CBC paths.

The batched implementation must be bit-for-bit the block-at-a-time
reference: the differential tests below re-derive CBC from the public
single-block functions and compare whole buffers, across every lane
count the batching thresholds distinguish.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    cbc_encrypt_many,
    pkcs7_pad,
)
from repro.crypto.xtea import (
    BLOCK_SIZE,
    KEY_SIZE,
    XTEACipher,
    xtea_decrypt_block,
    xtea_encrypt_block,
)

KEY = bytes(range(16))
IV = bytes(range(8))


# -- published-style vectors --------------------------------------------------
#
# Standard 32-round XTEA vectors (big-endian word order) as circulated
# with the reference C implementation.

VECTORS = [
    (
        "000102030405060708090a0b0c0d0e0f",
        "4142434445464748",
        "497df3d072612cb5",
    ),
    (
        "00000000000000000000000000000000",
        "0000000000000000",
        "dee9d4d8f7131ed9",
    ),
]


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_published_vectors_encrypt(key_hex, plain_hex, cipher_hex):
    key = bytes.fromhex(key_hex)
    plain = bytes.fromhex(plain_hex)
    assert xtea_encrypt_block(plain, key).hex() == cipher_hex


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", VECTORS)
def test_published_vectors_decrypt(key_hex, plain_hex, cipher_hex):
    key = bytes.fromhex(key_hex)
    cipher = bytes.fromhex(cipher_hex)
    assert xtea_decrypt_block(cipher, key).hex() == plain_hex


def test_cipher_object_matches_block_functions():
    cipher = XTEACipher.for_key(KEY)
    block = b"\x13" * BLOCK_SIZE
    assert cipher.encrypt_block(block) == xtea_encrypt_block(block, KEY)
    assert cipher.decrypt_block(block) == xtea_decrypt_block(block, KEY)
    # The per-key memo hands back the same instance (shared schedule).
    assert XTEACipher.for_key(KEY) is cipher


# -- reference CBC (block-at-a-time, pre-batching semantics) -----------------


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def reference_cbc_encrypt(plaintext: bytes, key: bytes, iv: bytes) -> bytes:
    padded = pkcs7_pad(plaintext)
    out = bytearray()
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = _xor(padded[offset:offset + BLOCK_SIZE], previous)
        previous = xtea_encrypt_block(block, key)
        out.extend(previous)
    return bytes(out)


def reference_cbc_decrypt_raw(ciphertext: bytes, key: bytes, iv: bytes) -> bytes:
    out = bytearray()
    previous = iv
    for offset in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[offset:offset + BLOCK_SIZE]
        out.extend(_xor(xtea_decrypt_block(block, key), previous))
        previous = block
    return bytes(out)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 15, 16, 17, 24, 64, 96, 97, 255])
def test_batched_cbc_matches_reference_bit_for_bit(size):
    rng = random.Random(size)
    plaintext = rng.randbytes(size)
    ciphertext = cbc_encrypt(plaintext, KEY, IV)
    assert ciphertext == reference_cbc_encrypt(plaintext, KEY, IV)
    assert cbc_decrypt(ciphertext, KEY, IV) == plaintext
    # Raw (unpadded) decryption agrees block-for-block too.
    cipher = XTEACipher.for_key(KEY)
    assert cipher.cbc_decrypt_raw(ciphertext, IV) == reference_cbc_decrypt_raw(
        ciphertext, KEY, IV
    )


keys = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
ivs = st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE)


def _blocks(count):
    return st.binary(min_size=count * BLOCK_SIZE, max_size=count * BLOCK_SIZE)


# The 1-3 block examples sit where a scalar path once handed over to
# the lanes.
@settings(max_examples=60, deadline=None)
@given(key=keys, iv=ivs, ciphertext=st.integers(1, 40).flatmap(_blocks))
@example(key=KEY, iv=IV, ciphertext=bytes(range(8)))
@example(key=KEY, iv=IV, ciphertext=bytes(range(16)))
@example(key=KEY, iv=IV, ciphertext=bytes(range(24)))
def test_decrypt_raw_matches_reference_chain(key, iv, ciphertext):
    cipher = XTEACipher.for_key(key)
    assert cipher.cbc_decrypt_raw(ciphertext, iv) == reference_cbc_decrypt_raw(
        ciphertext, key, iv
    )


def test_decrypt_raw_empty_and_misaligned():
    cipher = XTEACipher.for_key(KEY)
    assert cipher.cbc_decrypt_raw(b"", IV) == b""
    with pytest.raises(ValueError):
        cipher.cbc_decrypt_raw(b"x" * 9, IV)


@settings(max_examples=40, deadline=None)
@given(
    key=keys,
    messages=st.lists(
        st.tuples(st.binary(max_size=4 * BLOCK_SIZE - 1), ivs),
        min_size=1,
        max_size=14,
    ),
)
@example(  # groups of 1, 4, 1, 1 and 3 messages
    key=KEY,
    messages=[(bytes([n]) * n, bytes([n]) * BLOCK_SIZE)
              for n in (0, 40, 40, 40, 40, 17, 100, 9, 9, 9)],
)
def test_encrypt_many_matches_reference_over_mixed_groups(key, messages):
    # Plaintexts pad to 1-4 blocks, so a draw mixes single-message
    # groups (the sequential path) with lane groups of 3 or more.
    batched = cbc_encrypt_many(messages, key)
    assert batched == [
        reference_cbc_encrypt(plaintext, key, iv) for plaintext, iv in messages
    ]


def test_cbc_empty_plaintext_round_trip():
    ciphertext = cbc_encrypt(b"", KEY, IV)
    assert len(ciphertext) == BLOCK_SIZE  # one full padding block
    assert cbc_decrypt(ciphertext, KEY, IV) == b""


def test_cbc_one_block_and_odd_tail():
    one = b"A" * BLOCK_SIZE
    assert cbc_decrypt(cbc_encrypt(one, KEY, IV), KEY, IV) == one
    odd = b"B" * (BLOCK_SIZE + 3)
    assert cbc_decrypt(cbc_encrypt(odd, KEY, IV), KEY, IV) == odd


def test_malformed_padding_raises_padding_error():
    cipher = XTEACipher.for_key(KEY)
    # Craft ciphertexts that decrypt to invalid PKCS#7 tails.
    for bad_tail in (b"\x00", b"\x09", b"\xff", b"\x03\x03"):
        plain = b"C" * (BLOCK_SIZE - len(bad_tail)) + bad_tail
        assert len(plain) % BLOCK_SIZE == 0
        ciphertext = cipher.cbc_encrypt_padded(plain, IV)
        with pytest.raises(PaddingError):
            cbc_decrypt(ciphertext, KEY, IV)


def test_cbc_rejects_bad_lengths():
    with pytest.raises(ValueError):
        cbc_decrypt(b"", KEY, IV)
    with pytest.raises(ValueError):
        cbc_decrypt(b"x" * 9, KEY, IV)
    with pytest.raises(ValueError):
        cbc_encrypt(b"x", KEY, b"short")


def test_encrypt_many_matches_per_message_calls():
    rng = random.Random(7)
    messages = []
    for index in range(23):
        size = rng.choice([0, 5, 8, 64, 64, 64, 96, 31])
        messages.append((rng.randbytes(size), rng.randbytes(BLOCK_SIZE)))
    batched = cbc_encrypt_many(messages, KEY)
    for (plaintext, iv), ciphertext in zip(messages, batched):
        assert ciphertext == cbc_encrypt(plaintext, KEY, iv)
        assert ciphertext == reference_cbc_encrypt(plaintext, KEY, iv)


def test_encrypt_many_small_groups_use_scalar_path():
    # Below the bit-slicing threshold the per-message path runs; output
    # must be indistinguishable either way.
    messages = [(b"tiny", IV), (b"x" * 64, bytes(8))]
    assert cbc_encrypt_many(messages, KEY) == [
        cbc_encrypt(b"tiny", KEY, IV),
        cbc_encrypt(b"x" * 64, KEY, bytes(8)),
    ]


def test_key_and_block_size_validation():
    with pytest.raises(ValueError):
        XTEACipher.for_key(b"short")
    cipher = XTEACipher.for_key(KEY)
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"short")
    with pytest.raises(ValueError):
        cipher.decrypt_block(b"toolongblock")
    with pytest.raises(ValueError):
        cbc_encrypt_many([(b"data", b"short")], KEY)
