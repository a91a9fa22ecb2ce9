"""Storage backends behind the DSP's store.

The paper's DSP is an *untrusted, remote* third party; its disk is
therefore a seam, not an implementation detail.  :class:`StoreBackend`
is that seam: everything the DSP persists for a document -- the sealed
container, the sealed rule records with their version, and the wrapped
keys -- behind put/get operations the front
(:class:`~repro.dsp.store.DSPStore`) delegates to.

Two implementations ship:

* :class:`MemoryBackend` -- today's in-process dictionary, byte for
  byte the historical behavior (``get`` returns the *live* record, so
  in-place tamper injection keeps working);
* :class:`SQLiteBackend` -- a durable store (WAL journal, versioned
  schema) so a community survives process restarts: every document,
  rule version and wrapped key can be reopened intact from the file.

Republish semantics are explicit on this API: overwriting a container
**clears** the prior seal's rule records and wrapped keys unless the
caller opts into keeping them (``keep_rules`` / ``keep_keys``).  A
publisher re-sealing a document under the same secret passes
``keep_keys=True`` (the grants stay valid); a tamper injector
substituting ciphertext passes both (it wants the rest of the stored
state untouched).  Nothing is ever kept silently.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from repro.crypto.container import DocumentContainer, DocumentHeader
from repro.errors import PolicyError, UnknownDocument

#: Bump when the SQLite layout changes; stored in the ``meta`` table so
#: a reopen against a newer/older file fails loudly instead of
#: misreading rows.
SCHEMA_VERSION = 1


@dataclass(slots=True)
class StoredDocument:
    """Everything the DSP holds for one document id.

    ``rule_records`` are individually sealed rule blobs (the card
    decrypts them one at a time); ``wrapped_keys`` maps recipients to
    the document secret wrapped for them -- opaque to the DSP.
    """

    container: DocumentContainer
    rule_records: list[bytes] = field(default_factory=list)
    rules_version: int = 0
    wrapped_keys: dict[str, bytes] = field(default_factory=dict)


class StoreBackend(Protocol):
    """What a DSP disk must provide (documents, rules, wrapped keys).

    Implementations must be safe to call from several threads -- a
    served community's reactor thread
    (:class:`~repro.dsp.reactor.ReactorDSPServer`) reads while the
    owner's threads publish, update rules and grant keys.  ``get`` raises
    :class:`~repro.errors.UnknownDocument` for ids the store has never
    seen; whether the returned record is live (memory) or an assembled
    snapshot (SQLite) is backend-defined, so all mutation must go
    through the ``put_*``/``remove_*`` operations.
    """

    def put_document(
        self,
        container: DocumentContainer,
        *,
        keep_rules: bool = False,
        keep_keys: bool = False,
    ) -> None:
        """Store (or overwrite) a sealed container.

        Overwriting clears the prior seal's rule records and wrapped
        keys unless ``keep_rules``/``keep_keys`` explicitly retain
        them -- stale policy or grants never survive silently.
        """
        ...

    def get(self, doc_id: str) -> StoredDocument:
        """The stored record; raises ``UnknownDocument`` if absent."""
        ...

    def put_rules(
        self, doc_id: str, records: list[bytes], version: int
    ) -> None:
        """Replace the document's sealed rule records wholesale."""
        ...

    def put_wrapped_key(
        self, doc_id: str, recipient: str, blob: bytes
    ) -> None:
        """Store the document secret wrapped for one recipient."""
        ...

    def remove_wrapped_key(self, doc_id: str, recipient: str) -> bool:
        """Drop a recipient's wrapped key; returns whether one existed."""
        ...

    def document_ids(self) -> list[str]:
        """Every stored document id, sorted."""
        ...

    def contains(self, doc_id: str) -> bool:
        """Whether the store holds this document id."""
        ...

    def close(self) -> None:
        """Release any durable resources (idempotent)."""
        ...


class MemoryBackend:
    """The historical dict-backed disk: volatile, zero-copy, live.

    ``get`` returns the live :class:`StoredDocument`, exactly as the
    pre-backend ``DSPStore`` did -- identity checks and in-place tamper
    injection on the container keep their historical behavior, and the
    in-process hot path adds no copy.
    """

    def __init__(self) -> None:
        self._documents: dict[str, StoredDocument] = {}

    def put_document(
        self,
        container: DocumentContainer,
        *,
        keep_rules: bool = False,
        keep_keys: bool = False,
    ) -> None:
        doc_id = container.header.doc_id
        existing = self._documents.get(doc_id)
        if existing is None:
            self._documents[doc_id] = StoredDocument(container)
            return
        existing.container = container
        if not keep_rules:
            existing.rule_records = []
            existing.rules_version = 0
        if not keep_keys:
            existing.wrapped_keys = {}

    def get(self, doc_id: str) -> StoredDocument:
        stored = self._documents.get(doc_id)
        if stored is None:
            raise UnknownDocument(
                f"the store holds no document {doc_id!r}", doc_id=doc_id
            )
        return stored

    def put_rules(
        self, doc_id: str, records: list[bytes], version: int
    ) -> None:
        stored = self.get(doc_id)
        stored.rule_records = list(records)
        stored.rules_version = version

    def put_wrapped_key(
        self, doc_id: str, recipient: str, blob: bytes
    ) -> None:
        self.get(doc_id).wrapped_keys[recipient] = blob

    def remove_wrapped_key(self, doc_id: str, recipient: str) -> bool:
        return self.get(doc_id).wrapped_keys.pop(recipient, None) is not None

    def document_ids(self) -> list[str]:
        return sorted(self._documents)

    def contains(self, doc_id: str) -> bool:
        return doc_id in self._documents

    def close(self) -> None:  # nothing durable to release
        return None


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS documents (
    doc_id TEXT PRIMARY KEY,
    version INTEGER NOT NULL,
    chunk_size INTEGER NOT NULL,
    chunk_count INTEGER NOT NULL,
    total_length INTEGER NOT NULL,
    tag_length INTEGER NOT NULL,
    tag BLOB NOT NULL,
    rules_version INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS chunks (
    doc_id TEXT NOT NULL,
    idx INTEGER NOT NULL,
    blob BLOB NOT NULL,
    PRIMARY KEY (doc_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS rule_records (
    doc_id TEXT NOT NULL,
    idx INTEGER NOT NULL,
    record BLOB NOT NULL,
    PRIMARY KEY (doc_id, idx)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS wrapped_keys (
    doc_id TEXT NOT NULL,
    recipient TEXT NOT NULL,
    blob BLOB NOT NULL,
    PRIMARY KEY (doc_id, recipient)
) WITHOUT ROWID;
"""


class SQLiteBackend:
    """A durable DSP disk in one SQLite file (WAL mode).

    Every write commits before returning, so a process crash after any
    ``put_*`` loses nothing already acknowledged; reopening the path in
    a fresh process sees every document, rule version and wrapped key
    intact.  All access is serialized on an internal lock, so the
    reactor thread may read while owner threads write.

    Reads assemble a :class:`StoredDocument` snapshot per document and
    cache it until the next write to that id, so a pull session's
    per-chunk ``get`` calls do not re-read the file.

    Beyond the :class:`StoreBackend` surface the backend offers a tiny
    ``meta`` key/value table (:meth:`put_meta`/:meth:`get_meta`).  The
    community facade keeps its deployment manifest there -- member and
    owner names, which the DSP already learns from wrapped-key
    recipients and uploads, so nothing confidential is added.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        self._cache: dict[str, StoredDocument] = {}
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise PolicyError(
                    f"store file {self.path} has schema version {row[0]}, "
                    f"this build reads version {SCHEMA_VERSION}"
                )

    # -- StoreBackend ----------------------------------------------------

    def put_document(
        self,
        container: DocumentContainer,
        *,
        keep_rules: bool = False,
        keep_keys: bool = False,
    ) -> None:
        header = container.header
        doc_id = header.doc_id
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT rules_version FROM documents WHERE doc_id = ?",
                (doc_id,),
            ).fetchone()
            rules_version = int(row[0]) if row is not None and keep_rules else 0
            self._conn.execute(
                "INSERT OR REPLACE INTO documents "
                "(doc_id, version, chunk_size, chunk_count, total_length, "
                " tag_length, tag, rules_version) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    doc_id,
                    header.version,
                    header.chunk_size,
                    header.chunk_count,
                    header.total_length,
                    header.tag_length,
                    header.tag,
                    rules_version,
                ),
            )
            self._conn.execute(
                "DELETE FROM chunks WHERE doc_id = ?", (doc_id,)
            )
            self._conn.executemany(
                "INSERT INTO chunks (doc_id, idx, blob) VALUES (?, ?, ?)",
                [
                    (doc_id, index, blob)
                    for index, blob in enumerate(container.chunks)
                ],
            )
            if not keep_rules:
                self._conn.execute(
                    "DELETE FROM rule_records WHERE doc_id = ?", (doc_id,)
                )
            if not keep_keys:
                self._conn.execute(
                    "DELETE FROM wrapped_keys WHERE doc_id = ?", (doc_id,)
                )
            self._cache.pop(doc_id, None)

    def get(self, doc_id: str) -> StoredDocument:
        with self._lock:
            cached = self._cache.get(doc_id)
            if cached is not None:
                return cached
            row = self._conn.execute(
                "SELECT version, chunk_size, chunk_count, total_length, "
                "tag_length, tag, rules_version "
                "FROM documents WHERE doc_id = ?",
                (doc_id,),
            ).fetchone()
            if row is None:
                raise UnknownDocument(
                    f"the store holds no document {doc_id!r}", doc_id=doc_id
                )
            header = DocumentHeader(
                doc_id=doc_id,
                version=int(row[0]),
                chunk_size=int(row[1]),
                chunk_count=int(row[2]),
                total_length=int(row[3]),
                tag_length=int(row[4]),
                tag=bytes(row[5]),
            )
            chunks = tuple(
                bytes(blob)
                for (blob,) in self._conn.execute(
                    "SELECT blob FROM chunks WHERE doc_id = ? ORDER BY idx",
                    (doc_id,),
                )
            )
            records = [
                bytes(record)
                for (record,) in self._conn.execute(
                    "SELECT record FROM rule_records "
                    "WHERE doc_id = ? ORDER BY idx",
                    (doc_id,),
                )
            ]
            wrapped = {
                str(recipient): bytes(blob)
                for recipient, blob in self._conn.execute(
                    "SELECT recipient, blob FROM wrapped_keys "
                    "WHERE doc_id = ?",
                    (doc_id,),
                )
            }
            stored = StoredDocument(
                container=DocumentContainer(header=header, chunks=chunks),
                rule_records=records,
                rules_version=int(row[6]),
                wrapped_keys=wrapped,
            )
            self._cache[doc_id] = stored
            return stored

    def _require_document(self, doc_id: str) -> None:
        row = self._conn.execute(
            "SELECT 1 FROM documents WHERE doc_id = ?", (doc_id,)
        ).fetchone()
        if row is None:
            raise UnknownDocument(
                f"the store holds no document {doc_id!r}", doc_id=doc_id
            )

    def put_rules(
        self, doc_id: str, records: list[bytes], version: int
    ) -> None:
        with self._lock, self._conn:
            self._require_document(doc_id)
            self._conn.execute(
                "DELETE FROM rule_records WHERE doc_id = ?", (doc_id,)
            )
            self._conn.executemany(
                "INSERT INTO rule_records (doc_id, idx, record) "
                "VALUES (?, ?, ?)",
                [(doc_id, index, record) for index, record in enumerate(records)],
            )
            self._conn.execute(
                "UPDATE documents SET rules_version = ? WHERE doc_id = ?",
                (version, doc_id),
            )
            self._cache.pop(doc_id, None)

    def put_wrapped_key(
        self, doc_id: str, recipient: str, blob: bytes
    ) -> None:
        with self._lock, self._conn:
            self._require_document(doc_id)
            self._conn.execute(
                "INSERT OR REPLACE INTO wrapped_keys (doc_id, recipient, blob) "
                "VALUES (?, ?, ?)",
                (doc_id, recipient, blob),
            )
            self._cache.pop(doc_id, None)

    def remove_wrapped_key(self, doc_id: str, recipient: str) -> bool:
        with self._lock, self._conn:
            self._require_document(doc_id)
            cursor = self._conn.execute(
                "DELETE FROM wrapped_keys WHERE doc_id = ? AND recipient = ?",
                (doc_id, recipient),
            )
            self._cache.pop(doc_id, None)
            return cursor.rowcount > 0

    def document_ids(self) -> list[str]:
        with self._lock:
            return [
                str(doc_id)
                for (doc_id,) in self._conn.execute(
                    "SELECT doc_id FROM documents ORDER BY doc_id"
                )
            ]

    def contains(self, doc_id: str) -> bool:
        with self._lock:
            return (
                self._conn.execute(
                    "SELECT 1 FROM documents WHERE doc_id = ?", (doc_id,)
                ).fetchone()
                is not None
            )

    def close(self) -> None:
        with self._lock:
            self._cache.clear()
            self._conn.close()

    # -- meta (beyond the protocol) --------------------------------------

    def put_meta(self, key: str, value: str) -> None:
        """Store one entry in the file's key/value side table."""
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    def get_meta(self, key: str) -> str | None:
        """Read one entry from the key/value side table."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = ?", (key,)
            ).fetchone()
            return str(row[0]) if row is not None else None
