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

from repro.crypto.xtea import (
    BLOCK_SIZE,
    KEY_SIZE,
    PaddingError,
    XTEACipher,
    xtea_decrypt_block,
    xtea_encrypt_block,
)

KEY = bytes(range(16))
IV = bytes(range(8))
CIPHER = XTEACipher.for_key(KEY)


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


def reference_pad(data: bytes) -> bytes:
    pad = BLOCK_SIZE - len(data) % BLOCK_SIZE
    return data + bytes([pad]) * pad


def reference_unpad(padded: bytes) -> bytes | None:
    """``padded`` without its PKCS#7 tail, or ``None`` if malformed."""
    pad = padded[-1] if padded else 0
    if not 1 <= pad <= BLOCK_SIZE or padded[-pad:] != bytes([pad]) * pad:
        return None
    return padded[:-pad]


def reference_cbc_encrypt_raw(padded: bytes, key: bytes, iv: bytes) -> bytes:
    out = bytearray()
    previous = iv
    for offset in range(0, len(padded), BLOCK_SIZE):
        block = _xor(padded[offset:offset + BLOCK_SIZE], previous)
        previous = xtea_encrypt_block(block, key)
        out.extend(previous)
    return bytes(out)


def reference_cbc_encrypt(plaintext: bytes, key: bytes, iv: bytes) -> bytes:
    return reference_cbc_encrypt_raw(reference_pad(plaintext), key, iv)


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
    ciphertext = CIPHER.cbc_encrypt(plaintext, IV)
    assert ciphertext == reference_cbc_encrypt(plaintext, KEY, IV)
    assert CIPHER.cbc_decrypt(ciphertext, IV) == plaintext
    # The reference block-at-a-time decryption agrees block for block.
    assert reference_cbc_decrypt_raw(ciphertext, KEY, IV) == reference_pad(plaintext)


keys = st.binary(min_size=KEY_SIZE, max_size=KEY_SIZE)
ivs = st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE)


def _blocks(count):
    return st.binary(min_size=count * BLOCK_SIZE, max_size=count * BLOCK_SIZE)


def _plaintexts(blocks):
    """Plaintexts that pad to exactly ``blocks`` blocks."""
    return st.binary(
        min_size=(blocks - 1) * BLOCK_SIZE, max_size=blocks * BLOCK_SIZE - 1
    )


# The 1-3 block examples sit where a scalar path once handed over to
# the lanes.
@settings(max_examples=60, deadline=None)
@given(key=keys, iv=ivs, plaintext=st.integers(1, 40).flatmap(_plaintexts))
@example(key=KEY, iv=IV, plaintext=bytes(range(7)))
@example(key=KEY, iv=IV, plaintext=bytes(range(15)))
@example(key=KEY, iv=IV, plaintext=bytes(range(23)))
def test_decrypt_matches_reference_chain(key, iv, plaintext):
    ciphertext = reference_cbc_encrypt(plaintext, key, iv)
    assert XTEACipher.for_key(key).cbc_decrypt(ciphertext, iv) == plaintext


@settings(max_examples=60, deadline=None)
@given(key=keys, iv=ivs, ciphertext=st.integers(1, 40).flatmap(_blocks))
@example(key=KEY, iv=IV, ciphertext=bytes(range(8)))
@example(key=KEY, iv=IV, ciphertext=bytes(range(16)))
@example(key=KEY, iv=IV, ciphertext=bytes(range(24)))
def test_decrypt_accepts_exactly_what_the_reference_unpads(key, iv, ciphertext):
    expected = reference_unpad(reference_cbc_decrypt_raw(ciphertext, key, iv))
    cipher = XTEACipher.for_key(key)
    if expected is None:
        with pytest.raises(PaddingError):
            cipher.cbc_decrypt(ciphertext, iv)
    else:
        assert cipher.cbc_decrypt(ciphertext, iv) == expected


def test_decrypt_empty_and_misaligned():
    with pytest.raises(PaddingError):
        CIPHER.cbc_decrypt(b"", IV)
    with pytest.raises(PaddingError):
        CIPHER.cbc_decrypt(b"x" * 9, IV)


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
    batched = XTEACipher.for_key(key).cbc_encrypt_many(messages)
    assert batched == [
        reference_cbc_encrypt(plaintext, key, iv) for plaintext, iv in messages
    ]


def test_cbc_empty_plaintext_round_trip():
    ciphertext = CIPHER.cbc_encrypt(b"", IV)
    assert len(ciphertext) == BLOCK_SIZE  # one full padding block
    assert CIPHER.cbc_decrypt(ciphertext, IV) == b""


def test_cbc_one_block_and_odd_tail():
    one = b"A" * BLOCK_SIZE
    assert CIPHER.cbc_decrypt(CIPHER.cbc_encrypt(one, IV), IV) == one
    odd = b"B" * (BLOCK_SIZE + 3)
    assert CIPHER.cbc_decrypt(CIPHER.cbc_encrypt(odd, IV), IV) == odd


def test_malformed_padding_raises_padding_error():
    # Craft ciphertexts that decrypt to invalid PKCS#7 tails.
    for bad_tail in (b"\x00", b"\x09", b"\xff", b"\x03\x03"):
        plain = b"C" * (BLOCK_SIZE - len(bad_tail)) + bad_tail
        assert len(plain) % BLOCK_SIZE == 0
        ciphertext = reference_cbc_encrypt_raw(plain, KEY, IV)
        with pytest.raises(PaddingError):
            CIPHER.cbc_decrypt(ciphertext, IV)


def test_cbc_rejects_bad_lengths():
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"", IV)
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"x" * 9, IV)
    with pytest.raises(ValueError):
        CIPHER.cbc_encrypt(b"x", b"short")


def test_encrypt_many_matches_per_message_calls():
    rng = random.Random(7)
    messages = []
    for index in range(23):
        size = rng.choice([0, 5, 8, 64, 64, 64, 96, 31])
        messages.append((rng.randbytes(size), rng.randbytes(BLOCK_SIZE)))
    batched = CIPHER.cbc_encrypt_many(messages)
    for (plaintext, iv), ciphertext in zip(messages, batched):
        assert ciphertext == CIPHER.cbc_encrypt(plaintext, iv)
        assert ciphertext == reference_cbc_encrypt(plaintext, KEY, iv)


def test_encrypt_many_small_groups_use_scalar_path():
    # Below the bit-slicing threshold the per-message path runs; output
    # must be indistinguishable either way.
    messages = [(b"tiny", IV), (b"x" * 64, bytes(8))]
    assert CIPHER.cbc_encrypt_many(messages) == [
        CIPHER.cbc_encrypt(b"tiny", IV),
        CIPHER.cbc_encrypt(b"x" * 64, bytes(8)),
    ]


def test_key_and_block_size_validation():
    with pytest.raises(ValueError):
        XTEACipher.for_key(b"short")
    with pytest.raises(ValueError):
        CIPHER.encrypt_block(b"short")
    with pytest.raises(ValueError):
        CIPHER.decrypt_block(b"toolongblock")
    with pytest.raises(ValueError):
        CIPHER.cbc_encrypt_many([(b"data", b"short")])
    with pytest.raises(ValueError):
        CIPHER.cbc_decrypt(b"x" * BLOCK_SIZE, b"short")
