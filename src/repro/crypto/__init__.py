"""Cryptographic substrate (simulated smart-card crypto).

The real demonstrator used the e-gate card's crypto hardware; this
package substitutes a from-scratch XTEA block cipher in CBC mode with
HMAC-SHA-256 integrity tags and a simulated PKI (the paper's own demo
"simulate[s] it to keep the demonstration independent of a network
connection").  Costs are charged per byte to the card CPU model, so the
*relative* cost structure -- decryption linear in bytes, which is what
the skip index optimizes -- matches the paper's platform.

One layer per concept: the keyed
:class:`~repro.crypto.xtea.XTEACipher` owns CBC with PKCS#7 padding
(the one CBC layer, shared by sealing, opening and key wraps);
:mod:`~repro.crypto.mac` computes the positional tags; and
:mod:`~repro.crypto.container` seals documents and blobs and opens
each sealed item through one verify-then-decrypt routine.
"""

from repro.crypto.container import (
    DocumentContainer,
    DocumentHeader,
    IntegrityError,
    open_blob,
    open_chunk,
    seal_blob,
    seal_document,
)
from repro.crypto.merkle import AuthPath, MerkleTree, verify_chunk
from repro.crypto.keys import DocumentKeys, KeyRing, derive_key
from repro.crypto.mac import chunk_mac, header_mac
from repro.crypto.pki import KeyPair, SimulatedPKI
from repro.crypto.xtea import xtea_decrypt_block, xtea_encrypt_block

__all__ = [
    "AuthPath",
    "DocumentContainer",
    "DocumentHeader",
    "DocumentKeys",
    "IntegrityError",
    "KeyPair",
    "KeyRing",
    "MerkleTree",
    "SimulatedPKI",
    "chunk_mac",
    "derive_key",
    "header_mac",
    "open_blob",
    "open_chunk",
    "seal_blob",
    "seal_document",
    "verify_chunk",
    "xtea_decrypt_block",
    "xtea_encrypt_block",
]
