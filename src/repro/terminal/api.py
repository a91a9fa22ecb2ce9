"""Owner-side sealing, the community facade's internal publishing code.

This is what a document owner runs on their own terminal: encode the
document with its skip index, seal it, seal the access rules, and wrap
the document secret for each community member through the simulated
PKI.  Crucially -- this is the paper's motivation -- **updating the
access rules re-seals only the tiny rule records**: the document
ciphertext is untouched and no user key changes.  Experiment E8
measures exactly that against the static-encryption baseline.

Applications publish through ``member.publish`` and the
:class:`~repro.community.Document` handle; the facade calls the
functions below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rules import RuleSet
from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.crypto.pki import SimulatedPKI
from repro.dsp.store import DSPStore
from repro.skipindex.encoder import IndexMode, encode_document
from repro.xmlstream.events import Event


@dataclass(slots=True)
class PublishReceipt:
    """Accounting of one publish/update operation (E8 reads this)."""

    doc_id: str
    version: int
    document_bytes_encrypted: int
    rule_bytes_encrypted: int
    keys_distributed: int


def _seal_rules(
    rules: RuleSet, doc_id: str, version: int, keys: DocumentKeys
) -> tuple[list[bytes], int]:
    records: list[bytes] = []
    total = 0
    for index, rule in enumerate(rules):
        line = f"{rule.sign}|{rule.subject}|{rule.object}".encode("utf-8")
        record = seal_blob(line, f"{doc_id}#rule:{index}", version, keys)
        records.append(record)
        total += len(record)
    return records, total


def publish_document(
    store: DSPStore,
    pki: SimulatedPKI,
    owner: str,
    doc_id: str,
    version: int,
    secret: bytes,
    events: list[Event],
    rules: RuleSet,
    recipients: list[str],
    *,
    index_mode: IndexMode = IndexMode.RECURSIVE,
    chunk_size: int = 96,
) -> PublishReceipt:
    """Encode, seal and upload one version of a document.

    Seals the container and the rule records at ``version`` under
    ``secret`` and wraps the secret for each recipient.
    """
    keys = DocumentKeys(secret)
    plaintext = encode_document(events, index_mode)
    container = seal_document(
        plaintext, doc_id, version, keys, chunk_size=chunk_size
    )
    # A republish reuses the document secret, so existing grants
    # (wrapped keys) stay valid and are explicitly kept; the rule
    # records are replaced wholesale just below.
    store.put_document(container, keep_keys=True)
    records, rule_bytes = _seal_rules(rules, doc_id, version, keys)
    store.put_rules(doc_id, records, version)
    wrapped = pki.publish_secret(owner, recipients, secret)
    for recipient, blob in wrapped.items():
        store.put_wrapped_key(doc_id, recipient, blob)
    return PublishReceipt(
        doc_id=doc_id,
        version=version,
        document_bytes_encrypted=container.stored_size,
        rule_bytes_encrypted=rule_bytes,
        keys_distributed=len(recipients),
    )


def reseal_rules(
    store: DSPStore, doc_id: str, secret: bytes, rules: RuleSet
) -> PublishReceipt:
    """Change the policy without touching the document.

    This is the paper's headline property: "dissociating access
    rights from encryption" -- zero document bytes re-encrypted, zero
    keys redistributed.
    """
    version = store.get(doc_id).rules_version + 1
    records, rule_bytes = _seal_rules(
        rules, doc_id, version, DocumentKeys(secret)
    )
    store.put_rules(doc_id, records, version)
    return PublishReceipt(
        doc_id=doc_id,
        version=version,
        document_bytes_encrypted=0,
        rule_bytes_encrypted=rule_bytes,
        keys_distributed=0,
    )
