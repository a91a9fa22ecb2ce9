"""Key material and derivation.

One secret per document (``k_doc``) is shared among authorized users
through the (simulated) PKI; encryption, MAC and IV keys are derived
from it, so revoking a user never requires re-keying unrelated
documents -- and, the paper's central point, changing *access rules*
never requires re-encrypting anything at all.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.crypto.mac import keyed_digest
from repro.crypto.xtea import BLOCK_SIZE, KEY_SIZE, XTEACipher
from repro.errors import KeyNotGranted


def random_key() -> bytes:
    """A fresh 128-bit document secret."""
    return os.urandom(KEY_SIZE)


def derive_key(secret: bytes, label: str, length: int = KEY_SIZE) -> bytes:
    """Deterministic subkey derivation (HKDF-like, one expand step)."""
    return keyed_digest(secret, b"derive:" + label.encode("utf-8"))[:length]


@dataclass(frozen=True, slots=True)
class DocumentKeys:
    """The derived key bundle for one document.

    Subkeys are derived once at construction (the seed recomputed the
    HMAC on every ``encryption``/``mac`` access -- twice per chunk on
    the hot path); ``cipher`` is the shared keyed XTEA instance used by
    every seal/open call under this document.
    """

    secret: bytes
    encryption: bytes = field(init=False, repr=False)
    mac: bytes = field(init=False, repr=False)
    cipher: XTEACipher = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "encryption", derive_key(self.secret, "enc"))
        object.__setattr__(self, "mac", derive_key(self.secret, "mac"))
        object.__setattr__(self, "cipher", XTEACipher.for_key(self.encryption))

    def iv(self, doc_id: str, version: int, index: int) -> bytes:
        """Deterministic per-chunk IV; no IV storage in the container."""
        message = f"iv:{doc_id}:{version}:{index}".encode("utf-8")
        return keyed_digest(self.secret, message)[:BLOCK_SIZE]


class KeyRing:
    """Per-principal store of document secrets.

    On the card this lives in secure stable storage; terminal-side
    instances model what each user has been granted through the PKI.
    """

    def __init__(self) -> None:
        self._secrets: dict[str, DocumentKeys] = {}

    def grant(self, doc_id: str, secret: bytes) -> None:
        """Install the secret for a document."""
        self._secrets[doc_id] = DocumentKeys(secret)

    def revoke(self, doc_id: str) -> None:
        self._secrets.pop(doc_id, None)

    def keys_for(self, doc_id: str) -> DocumentKeys:
        """Key bundle for a document (:class:`KeyNotGranted` if absent)."""
        keys = self._secrets.get(doc_id)
        if keys is None:
            raise KeyNotGranted(
                f"no key granted for document {doc_id!r}", doc_id=doc_id
            )
        return keys

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._secrets

    def __len__(self) -> int:
        return len(self._secrets)
