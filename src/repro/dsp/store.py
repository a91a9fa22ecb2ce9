"""The DSP's disk front: a thin façade over a pluggable backend.

Historically ``DSPStore`` *was* the disk (a dictionary); it is now a
delegating front over a :class:`~repro.dsp.backends.StoreBackend`, so
the same server code runs against the volatile in-process
:class:`~repro.dsp.backends.MemoryBackend` (the default -- byte for
byte the historical behavior) or the durable
:class:`~repro.dsp.backends.SQLiteBackend`.
"""

from __future__ import annotations

import os

from repro.crypto.container import DocumentContainer
from repro.dsp.backends import (
    MemoryBackend,
    SQLiteBackend,
    StoreBackend,
    StoredDocument,
)
from repro.dsp.freshness import Freshness

__all__ = ["DSPStore", "StoredDocument"]


class DSPStore:
    """The DSP's dictionary of encrypted documents, backend-pluggable."""

    def __init__(self, backend: StoreBackend | None = None) -> None:
        self.backend: StoreBackend = (
            backend if backend is not None else MemoryBackend()
        )
        #: Bumped after every mutation.  Incremented *after* the
        #: backend write completes, so data observed under generation
        #: ``g`` is never newer than ``g`` says.
        self.generation = 0
        #: Random per-process nonce qualifying :attr:`generation`, which
        #: restarts at 0 in every process.
        self.boot = os.urandom(8).hex()
        #: The current ``(generation, boot)`` stamp; holders of copies
        #: check it with :class:`~repro.dsp.freshness.Freshness`.
        self.stamp = Freshness(self.generation, self.boot)

    @property
    def durable_backend(self) -> SQLiteBackend | None:
        """The backend if it persists to disk, else ``None``.

        What only a durable store can keep -- the community's
        deployment manifest -- is written through it; on a volatile
        store that write is skipped.
        """
        backend = self.backend
        return backend if isinstance(backend, SQLiteBackend) else None

    def _bump(self) -> None:
        self.generation += 1
        self.stamp = Freshness(self.generation, self.boot)

    def put_document(
        self,
        container: DocumentContainer,
        *,
        keep_rules: bool = False,
        keep_keys: bool = False,
    ) -> None:
        """Store (or overwrite) a sealed container.

        Overwriting a document id clears the prior seal's rule records
        and wrapped keys unless the caller explicitly keeps them:
        ``keep_keys=True`` retains the grants (a republish under the
        same document secret), ``keep_rules=True`` retains the sealed
        policy (e.g. a tampering store substituting only ciphertext).
        Nothing stale is ever kept silently.
        """
        self.backend.put_document(
            container, keep_rules=keep_rules, keep_keys=keep_keys
        )
        self._bump()

    def get(self, doc_id: str) -> StoredDocument:
        """The stored record; raises
        :class:`~repro.errors.UnknownDocument` if absent."""
        return self.backend.get(doc_id)

    def put_rules(
        self, doc_id: str, records: list[bytes], version: int
    ) -> None:
        self.backend.put_rules(doc_id, list(records), version)
        self._bump()

    def put_wrapped_key(self, doc_id: str, recipient: str, blob: bytes) -> None:
        self.backend.put_wrapped_key(doc_id, recipient, blob)
        self._bump()

    def remove_wrapped_key(self, doc_id: str, recipient: str) -> bool:
        """Drop a recipient's wrapped key (key-level revocation).

        Returns whether a key was actually removed.  Note that a card
        that already unlocked the document keeps its provisioned copy;
        durable revocation also updates the access rules.
        """
        removed = self.backend.remove_wrapped_key(doc_id, recipient)
        if removed:
            self._bump()
        return removed

    def document_ids(self) -> list[str]:
        return self.backend.document_ids()

    def close(self) -> None:
        """Release the backend's durable resources (idempotent)."""
        self.backend.close()

    def __contains__(self, doc_id: str) -> bool:
        return self.backend.contains(doc_id)
