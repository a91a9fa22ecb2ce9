"""Integrity tags: HMAC-SHA-256 with positional binding.

"The only way to mislead the access control rule evaluator is to tamper
the input document, for example by substituting or modifying encrypted
blocks, thus motivating the encryption and integrity checking"
(Section 2.1).

Every chunk MAC binds ``(document id, version, chunk index, chunk
count)`` in addition to the ciphertext, so each of the classic attacks
by an untrusted DSP or channel fails:

* *modification*  -- the ciphertext is under the MAC;
* *substitution*  -- the document id is under the MAC;
* *reordering*    -- the chunk index is under the MAC;
* *truncation*    -- the chunk count is under the MAC (and the header
  carries its own MAC);
* *version replay* -- the version is under the MAC and the card keeps a
  monotonic per-document version register in its secure store.

Tags may be truncated (smart cards commonly use 4-8 byte tags to save
bandwidth); the length is a parameter of the container.
"""

from __future__ import annotations

import hashlib

DEFAULT_TAG_LENGTH = 8

#: Per-key SHA-256 states with the inner and outer key pads already
#: absorbed (RFC 2104).  A message copies both -- no ``hmac.HMAC``
#: object, and none of the two key-schedule compression rounds that
#: ``hmac.new`` pays on every call.  Every message is still MAC'd in
#: full; only the key-dependent prefix states are shared.  The memo is
#: shared with :mod:`repro.crypto.keys` (IV/subkey derivation).
_BASES: dict[bytes, tuple["hashlib._Hash", "hashlib._Hash"]] = {}
_BASE_LIMIT = 256
_BLOCK = hashlib.sha256().block_size
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def keyed_digest(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA-256 with per-key precomputed pad states."""
    pads = _BASES.get(key)
    if pads is None:
        if len(_BASES) >= _BASE_LIMIT:
            _BASES.clear()
        block = key if len(key) <= _BLOCK else hashlib.sha256(key).digest()
        block = block.ljust(_BLOCK, b"\0")
        pads = _BASES[key] = (
            hashlib.sha256(block.translate(_INNER_PAD)),
            hashlib.sha256(block.translate(_OUTER_PAD)),
        )
    inner = pads[0].copy()
    inner.update(message)
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.digest()


def chunk_mac(
    key: bytes,
    doc_id: str,
    version: int,
    index: int,
    chunk_count: int,
    ciphertext: bytes,
    length: int = DEFAULT_TAG_LENGTH,
) -> bytes:
    """MAC of one encrypted chunk with full positional binding."""
    header = (
        doc_id.encode("utf-8")
        + b"\x00"
        + version.to_bytes(8, "big")
        + index.to_bytes(8, "big")
        + chunk_count.to_bytes(8, "big")
    )
    return keyed_digest(key, header + ciphertext)[:length]


def header_mac(
    key: bytes,
    doc_id: str,
    version: int,
    chunk_count: int,
    chunk_size: int,
    payload: bytes,
    length: int = DEFAULT_TAG_LENGTH,
) -> bytes:
    """MAC of the container header (metadata + any plaintext payload)."""
    header = (
        b"HDR"
        + doc_id.encode("utf-8")
        + b"\x00"
        + version.to_bytes(8, "big")
        + chunk_count.to_bytes(8, "big")
        + chunk_size.to_bytes(8, "big")
    )
    return keyed_digest(key, header + payload)[:length]
