"""The encrypted document container stored at the DSP.

The SXS plaintext stream (skip index included) is cut into fixed-size
chunks; each chunk is encrypted independently (XTEA-CBC, deterministic
per-chunk IV) and carries a positional MAC.  Independent chunks are
what make the skip index effective end-to-end: the card can resume at
any chunk boundary without decrypting or verifying what it skipped,
while substitution/reorder/replay/truncation all remain detectable
(see :mod:`repro.crypto.mac`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hmac import compare_digest

from repro.crypto.keys import DocumentKeys
from repro.crypto.mac import DEFAULT_TAG_LENGTH, chunk_mac, header_mac
from repro.crypto.xtea import PaddingError
from repro.errors import TamperDetected

DEFAULT_CHUNK_SIZE = 96  # plaintext bytes per chunk; fits card RAM easily


class IntegrityError(TamperDetected):
    """Raised when a MAC check or structural invariant fails."""


def _header_payload(total_length: int, tag_length: int) -> bytes:
    """The header fields the MAC covers beyond id, version and shape."""
    return total_length.to_bytes(8, "big") + bytes([tag_length])


@dataclass(frozen=True, slots=True)
class DocumentHeader:
    """Authenticated container metadata."""

    doc_id: str
    version: int
    chunk_size: int
    chunk_count: int
    total_length: int  # plaintext bytes
    tag_length: int
    tag: bytes = field(repr=False, default=b"")

    def payload(self) -> bytes:
        return _header_payload(self.total_length, self.tag_length)

    def verify(self, keys: DocumentKeys) -> None:
        """Check the header MAC (card side, before any chunk is used)."""
        expected = header_mac(
            keys.mac,
            self.doc_id,
            self.version,
            self.chunk_count,
            self.chunk_size,
            self.payload(),
            self.tag_length,
        )
        if not compare_digest(expected, self.tag):
            raise IntegrityError(f"header MAC mismatch for {self.doc_id!r}")


@dataclass(frozen=True, slots=True)
class DocumentContainer:
    """Header plus encrypted chunks, as stored at the DSP."""

    header: DocumentHeader
    chunks: tuple[bytes, ...]  # each = ciphertext || tag

    @property
    def stored_size(self) -> int:
        """Total bytes at rest (ciphertext + tags), the E4/E6 metric."""
        return sum(len(chunk) for chunk in self.chunks)


def seal_document(
    plaintext: bytes,
    doc_id: str,
    version: int,
    keys: DocumentKeys,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    tag_length: int = DEFAULT_TAG_LENGTH,
) -> DocumentContainer:
    """Encrypt and authenticate an SXS plaintext stream (owner side)."""
    if chunk_size <= 0:
        raise ValueError("chunk size must be positive")
    chunk_count = max(1, -(-len(plaintext) // chunk_size))
    # All chunks encrypt through one shared keyed cipher, bit-sliced
    # across chunks (each chunk chains internally on its own IV).
    ciphertexts = keys.cipher.cbc_encrypt_many([
        (
            plaintext[index * chunk_size:(index + 1) * chunk_size],
            keys.iv(doc_id, version, index),
        )
        for index in range(chunk_count)
    ])
    chunks: list[bytes] = []
    for index, ciphertext in enumerate(ciphertexts):
        tag = chunk_mac(
            keys.mac, doc_id, version, index, chunk_count, ciphertext, tag_length
        )
        chunks.append(ciphertext + tag)
    header = DocumentHeader(
        doc_id=doc_id,
        version=version,
        chunk_size=chunk_size,
        chunk_count=chunk_count,
        total_length=len(plaintext),
        tag_length=tag_length,
        tag=header_mac(
            keys.mac, doc_id, version, chunk_count, chunk_size,
            _header_payload(len(plaintext), tag_length), tag_length,
        ),
    )
    return DocumentContainer(header=header, chunks=tuple(chunks))


def seal_blob(
    plaintext: bytes,
    label: str,
    version: int,
    keys: DocumentKeys,
    tag_length: int = DEFAULT_TAG_LENGTH,
) -> bytes:
    """Encrypt and authenticate a small standalone blob (e.g. one access
    rule record).  The label namespaces the MAC so a blob can never be
    replayed as a document chunk or as a different record."""
    ciphertext = keys.cipher.cbc_encrypt(plaintext, keys.iv(label, version, 0))
    tag = chunk_mac(keys.mac, label, version, 0, 1, ciphertext, tag_length)
    return ciphertext + tag


#: ``IntegrityError`` messages of :func:`_open_sealed`, per item kind:
#: too short, MAC mismatch, failed to decrypt.
_CHUNK_ERRORS = (
    "chunk too short",
    "chunk {index} MAC mismatch for {name!r}",
    "chunk {index} failed to decrypt",
)
_BLOB_ERRORS = (
    "blob {name!r} too short",
    "blob MAC mismatch for {name!r}",
    "blob {name!r} failed to decrypt",
)


def _open_sealed(
    blob: bytes,
    name: str,
    version: int,
    index: int,
    count: int,
    tag_length: int,
    keys: DocumentKeys,
    errors: tuple[str, str, str],
) -> bytes:
    """Verify the positional MAC of ``ciphertext || tag``, then decrypt.

    ``errors`` holds the kind's three messages (``_CHUNK_ERRORS`` or
    ``_BLOB_ERRORS``), formatted with ``name`` and ``index`` only when
    one is raised.
    """
    if len(blob) <= tag_length:
        raise IntegrityError(errors[0].format(name=name, index=index))
    ciphertext = blob[:-tag_length]
    expected = chunk_mac(keys.mac, name, version, index, count, ciphertext, tag_length)
    if not compare_digest(expected, blob[-tag_length:]):
        raise IntegrityError(errors[1].format(name=name, index=index))
    try:
        return keys.cipher.cbc_decrypt(ciphertext, keys.iv(name, version, index))
    except PaddingError as exc:
        raise IntegrityError(errors[2].format(name=name, index=index)) from exc


def open_blob(
    blob: bytes,
    label: str,
    version: int,
    keys: DocumentKeys,
    tag_length: int = DEFAULT_TAG_LENGTH,
) -> bytes:
    """Verify and decrypt a blob sealed by :func:`seal_blob`."""
    return _open_sealed(blob, label, version, 0, 1, tag_length, keys, _BLOB_ERRORS)


def open_chunk(
    header: DocumentHeader,
    index: int,
    blob: bytes,
    keys: DocumentKeys,
) -> bytes:
    """Verify and decrypt one chunk (card side).

    Raises :class:`IntegrityError` on any tamper evidence.
    """
    if not 0 <= index < header.chunk_count:
        raise IntegrityError(f"chunk index {index} out of range")
    plaintext = _open_sealed(
        blob, header.doc_id, header.version, index, header.chunk_count,
        header.tag_length, keys, _CHUNK_ERRORS,
    )
    if len(plaintext) != min(
        header.chunk_size, header.total_length - index * header.chunk_size
    ):
        raise IntegrityError(f"chunk {index} has unexpected length")
    return plaintext
