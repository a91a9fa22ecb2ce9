"""XTEA block cipher (Needham & Wheeler, 1997) -- from scratch.

64-bit blocks, 128-bit keys, 32 rounds.  XTEA is a realistic stand-in
for a software cipher on an 8/32-bit smart-card CPU: tiny code, small
state, cost strictly linear in the number of blocks.  The cycle model
in :mod:`repro.smartcard.resources` charges per byte accordingly.

Two implementation layers:

* the historical block functions (:func:`xtea_encrypt_block`,
  :func:`xtea_decrypt_block`) remain the readable reference and the
  bit-for-bit ground truth the batched paths are tested against;
* :class:`XTEACipher` is the one CBC layer every seal, open and
  key-wrap path uses: CBC with PKCS#7 padding over whole buffers
  (:meth:`~XTEACipher.cbc_encrypt`, the batched
  :meth:`~XTEACipher.cbc_encrypt_many` and
  :meth:`~XTEACipher.cbc_decrypt`, which raises :class:`PaddingError`).
  The key schedule (the 64 per-round ``sum + key[...]`` constants,
  which depend only on the key) is computed once per key and memoized.
  The CBC paths run the rounds *bit-sliced across blocks*: a buffer
  read as one big-endian integer already holds one 8-byte block per
  64-bit lane, so ``whole & mask`` and ``(whole >> 32) & mask`` split
  it into the two 32-bit halves and one arithmetic operation advances
  every block at once.  The round function needs no mask of its own:
  its low part stays below 2^38 and the ``>> 5`` spill from the next
  lane sits in bits 59-63, so no carry crosses a lane and one mask per
  half-round clears both.  Per-lane subtraction is an add of the
  complement, ``v - x == v + (x ^ 0xFFFFFFFF) + 1 (mod 2^32)``, with
  the complement folded into the replicated round keys.
"""

from __future__ import annotations

import struct

from repro.errors import TamperDetected

_DELTA = 0x9E3779B9
_MASK = 0xFFFFFFFF
_ROUNDS = 32

BLOCK_SIZE = 8
KEY_SIZE = 16

#: Minimum number of equal-length messages before the bit-sliced
#: encrypt beats the scheduled per-block loop (a lone CBC message is
#: sequential, and lane setup has fixed overhead).
_SWAR_MIN_BLOCKS = 3

#: Lane counts cached per cipher and direction before the cache resets.
_LANE_CACHE_LIMIT = 16

#: ``_PADS[n]`` is ``n`` bytes of value ``n``: the PKCS#7 tail.
_PADS = tuple(bytes([n]) * n for n in range(BLOCK_SIZE + 1))


class PaddingError(TamperDetected, ValueError):
    """Raised when a CBC ciphertext does not decrypt to PKCS#7 padding.

    Malformed padding after an authenticated decrypt means the key or
    ciphertext was wrong -- tamper evidence, hence the taxonomy parent
    -- but it stays a :class:`ValueError` for historical callers.
    """


def _key_schedule(key: bytes) -> tuple[int, int, int, int]:
    if len(key) != KEY_SIZE:
        raise ValueError(f"XTEA needs a {KEY_SIZE}-byte key")
    return struct.unpack(">4L", key)


def _pkcs7(data: bytes) -> bytes:
    """``data`` with its PKCS#7 padding (always 1..BLOCK_SIZE bytes)."""
    return data + _PADS[BLOCK_SIZE - len(data) % BLOCK_SIZE]


def _ones(count: int) -> int:
    """The integer with a 1 in each of ``count`` 64-bit lanes."""
    return (1 << (64 * count)) // ((1 << 64) - 1)


class XTEACipher:
    """A keyed XTEA instance with a precomputed round schedule.

    ``enc_schedule``/``dec_schedule`` hold the 32 ``(sum0, sum1)``
    pairs consumed by the round loops; they are derived from the key
    alone, so every block encrypted under this key shares them.
    Instances are memoized per key via :meth:`for_key` -- the seal,
    open and key-wrap paths all land on the same object.
    """

    __slots__ = ("key", "enc_schedule", "dec_schedule", "_dec_lanes", "_enc_lanes")

    #: Per-key instance cache (bounded; keys are 16-byte strings).
    _instances: dict[bytes, "XTEACipher"] = {}
    _INSTANCE_LIMIT = 256

    def __init__(self, key: bytes) -> None:
        k = _key_schedule(key)
        self.key = key
        enc: list[tuple[int, int]] = []
        total = 0
        for _ in range(_ROUNDS):
            sum0 = (total + k[total & 3]) & _MASK
            total = (total + _DELTA) & _MASK
            sum1 = (total + k[(total >> 11) & 3]) & _MASK
            enc.append((sum0, sum1))
        self.enc_schedule = tuple(enc)
        self.dec_schedule = tuple((s1, s0) for s0, s1 in reversed(enc))
        # Lane count -> lane constants and replicated round keys, built
        # on first use per direction (a cipher that only ever decrypts
        # never pays for the encrypt replication, and vice versa).
        self._dec_lanes: dict[int, tuple[int, int, tuple[tuple[int, int], ...]]] = {}
        self._enc_lanes: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}

    @classmethod
    def for_key(cls, key: bytes) -> "XTEACipher":
        """The memoized cipher for ``key`` (schedule computed once)."""
        cipher = cls._instances.get(key)
        if cipher is None:
            cipher = cls(key)
            if len(cls._instances) >= cls._INSTANCE_LIMIT:
                cls._instances.clear()
            cls._instances[key] = cipher
        return cipher

    # -- single block (reference-compatible) ---------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"XTEA blocks are {BLOCK_SIZE} bytes")
        v0, v1 = struct.unpack(">2L", block)
        for sum0, sum1 in self.enc_schedule:
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ sum0)) & _MASK
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ sum1)) & _MASK
        return struct.pack(">2L", v0, v1)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ValueError(f"XTEA blocks are {BLOCK_SIZE} bytes")
        v0, v1 = struct.unpack(">2L", block)
        for sum1, sum0 in self.dec_schedule:
            v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ sum1)) & _MASK
            v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ sum0)) & _MASK
        return struct.pack(">2L", v0, v1)

    # -- CBC with PKCS#7 padding over whole buffers ---------------------------

    def cbc_encrypt(self, plaintext: bytes, iv: bytes) -> bytes:
        """Pad ``plaintext`` (PKCS#7) and CBC-encrypt it under ``iv``.

        Chaining makes encryption inherently sequential, so this is the
        scheduled per-block loop with the XOR done on integers (no
        per-byte work, no per-block key schedule).
        """
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
        padded = _pkcs7(plaintext)
        count = len(padded) // BLOCK_SIZE
        words = struct.unpack(f">{2 * count}L", padded)
        p0, p1 = struct.unpack(">2L", iv)
        out = bytearray(len(padded))
        pack_into = struct.pack_into
        schedule = self.enc_schedule
        for index in range(count):
            v0 = words[2 * index] ^ p0
            v1 = words[2 * index + 1] ^ p1
            for sum0, sum1 in schedule:
                v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ sum0)) & _MASK
                v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ sum1)) & _MASK
            p0, p1 = v0, v1
            pack_into(">2L", out, 8 * index, v0, v1)
        return bytes(out)

    def cbc_encrypt_many(
        self, messages: list[tuple[bytes, bytes]]
    ) -> list[bytes]:
        """Pad and CBC-encrypt independent ``(plaintext, iv)`` messages.

        Each result is bit-for-bit what :meth:`cbc_encrypt` returns for
        that message.  Messages chain internally but not across each
        other, so the lane dimension is the *message*: CBC step ``j``
        joins block ``j`` of every equal-length message into one
        integer (first message in the top lane) and encrypts them in one
        bit-sliced pass.  Messages are grouped by padded block count;
        each group costs ``blocks`` sequential steps regardless of how
        many messages it holds.  Output order matches input order.
        """
        results: list[bytes | None] = [None] * len(messages)
        groups: dict[int, list[int]] = {}
        for position, (plaintext, iv) in enumerate(messages):
            if len(iv) != BLOCK_SIZE:
                raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
            groups.setdefault(len(plaintext) // BLOCK_SIZE + 1, []).append(position)
        for block_count, positions in groups.items():
            lanes = len(positions)
            if lanes < _SWAR_MIN_BLOCKS:
                for position in positions:
                    results[position] = self.cbc_encrypt(*messages[position])
                continue
            mask, schedule = self._enc_lanes.get(lanes) or self._replicate_enc(lanes)
            padded_group = [_pkcs7(messages[p][0]) for p in positions]
            prev = int.from_bytes(b"".join(messages[p][1] for p in positions), "big")
            steps: list[bytes] = []
            for start in range(0, BLOCK_SIZE * block_count, BLOCK_SIZE):
                v = prev ^ int.from_bytes(
                    b"".join([padded[start:start + 8] for padded in padded_group]),
                    "big",
                )
                v1 = v & mask
                v0 = (v >> 32) & mask
                for r0, r1 in schedule:
                    v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ r0)) & mask
                    v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ r1)) & mask
                prev = (v0 << 32) | v1
                steps.append(prev.to_bytes(BLOCK_SIZE * lanes, "big"))
            # Step j holds block j of every message; message i's blocks
            # are every lanes-th 64-bit word from word i on.
            words = struct.unpack(f">{block_count * lanes}Q", b"".join(steps))
            for lane, position in enumerate(positions):
                results[position] = struct.pack(
                    f">{block_count}Q", *words[lane::lanes]
                )
        return results  # type: ignore[return-value]

    def cbc_decrypt(self, ciphertext: bytes, iv: bytes) -> bytes:
        """CBC-decrypt under ``iv`` and strip the PKCS#7 padding.

        Raises :class:`PaddingError` when the ciphertext is not a
        non-empty block multiple or decrypts to malformed padding.
        Decryption has no chaining dependency (every block decrypts
        independently, then XORs with the previous *ciphertext* block),
        so the whole buffer runs bit-sliced at every length: one lane
        per block, and the unchaining is one XOR with the ciphertext
        shifted down one lane, the IV filling the top lane.
        """
        length = len(ciphertext)
        if len(iv) != BLOCK_SIZE:
            raise ValueError(f"IV must be {BLOCK_SIZE} bytes")
        if not length or length % BLOCK_SIZE:
            raise PaddingError("ciphertext length is not a block multiple")
        count = length // BLOCK_SIZE
        ones, mask, schedule = self._dec_lanes.get(count) or self._replicate_dec(count)
        whole = int.from_bytes(ciphertext, "big")
        v1 = whole & mask
        v0 = (whole >> 32) & mask
        for r1c, r0c in schedule:
            v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ r1c) + ones) & mask
            v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ r0c) + ones) & mask
        chain = (whole >> 64) | (int.from_bytes(iv, "big") << (64 * (count - 1)))
        padded = (((v0 << 32) | v1) ^ chain).to_bytes(length, "big")
        pad = padded[-1]
        if not 1 <= pad <= BLOCK_SIZE or not padded.endswith(_PADS[pad]):
            raise PaddingError("bad padding bytes")
        return padded[:-pad]

    # -- lane-replicated round keys, cached per lane count --------------------

    def _replicate_dec(self, count: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """``(ones, mask, keys)`` for ``count`` decrypt lanes, cached.

        The keys are complemented for add-as-subtract.
        """
        if len(self._dec_lanes) >= _LANE_CACHE_LIMIT:
            self._dec_lanes.clear()
        ones = _ones(count)
        keys = tuple(
            ((sum1 ^ _MASK) * ones, (sum0 ^ _MASK) * ones)
            for sum1, sum0 in self.dec_schedule
        )
        entry = self._dec_lanes[count] = (ones, _MASK * ones, keys)
        return entry

    def _replicate_enc(self, count: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(mask, keys)`` for ``count`` encrypt lanes, cached."""
        if len(self._enc_lanes) >= _LANE_CACHE_LIMIT:
            self._enc_lanes.clear()
        ones = _ones(count)
        keys = tuple((sum0 * ones, sum1 * ones) for sum0, sum1 in self.enc_schedule)
        entry = self._enc_lanes[count] = (_MASK * ones, keys)
        return entry


def xtea_encrypt_block(block: bytes, key: bytes) -> bytes:
    """Encrypt one 8-byte block."""
    return XTEACipher.for_key(key).encrypt_block(block)


def xtea_decrypt_block(block: bytes, key: bytes) -> bytes:
    """Decrypt one 8-byte block."""
    return XTEACipher.for_key(key).decrypt_block(block)
