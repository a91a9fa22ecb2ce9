"""Unit tests for the owner-side sealing behind ``member.publish``."""

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.crypto.container import open_blob
from repro.crypto.keys import DocumentKeys


def _stack():
    community = Community()
    owner = community.enroll("owner")
    community.enroll("reader")
    return community, owner


RULES = RuleSet([AccessRule.parse("+", "reader", "/a", rule_id="T0")])


def test_publish_uploads_everything():
    community, owner = _stack()
    doc = owner.publish("<a>x</a>", RULES, to=["reader"], doc_id="doc")
    receipt = doc.receipt
    assert receipt.version == 1
    assert receipt.document_bytes_encrypted > 0
    assert receipt.keys_distributed == 1
    stored = community.store.get("doc")
    assert stored.rules_version == 1
    assert len(stored.rule_records) == 1
    assert "reader" in stored.wrapped_keys


def test_wrapped_key_unwraps_to_document_secret():
    community, owner = _stack()
    doc = owner.publish("<a/>", RULES, to=["reader"], doc_id="doc")
    wrapped = community.store.get("doc").wrapped_keys["reader"]
    secret = community.pki.unwrap_secret("reader", "owner", wrapped)
    assert secret == doc._owner_secret()


def test_rule_records_decrypt_with_doc_keys():
    community, owner = _stack()
    doc = owner.publish("<a/>", RULES, to=["reader"], doc_id="doc")
    keys = DocumentKeys(doc._owner_secret())
    record = community.store.get("doc").rule_records[0]
    line = open_blob(record, "doc#rule:0", 1, keys).decode()
    assert line == "+|reader|/a"


def test_update_rules_touches_no_document_bytes():
    """The headline property: policy churn costs zero re-encryption."""
    community, owner = _stack()
    doc = owner.publish("<a>x</a>", RULES, to=["reader"], doc_id="doc")
    store = community.store
    container_before = store.get("doc").container
    new_rules = RuleSet([
        AccessRule.parse("-", "reader", "//secret", rule_id="N0"),
        AccessRule.parse("+", "reader", "/a", rule_id="N1"),
    ])
    receipt = doc.update_rules(new_rules)
    assert receipt.document_bytes_encrypted == 0
    assert receipt.keys_distributed == 0
    assert receipt.rule_bytes_encrypted > 0
    assert store.get("doc").container is container_before
    assert store.get("doc").rules_version == 2
    assert len(store.get("doc").rule_records) == 2


def test_republish_bumps_version():
    community, owner = _stack()
    doc = owner.publish("<a>1</a>", RULES, to=["reader"], doc_id="doc")
    secret = doc._owner_secret()
    again = owner.publish("<a>2</a>", RULES, to=["reader"], doc_id="doc")
    assert again is doc
    assert doc.receipt.version == 2
    assert community.store.get("doc").container.header.version == 2
    assert doc._owner_secret() == secret


def test_grant_access_adds_wrapped_key():
    community, owner = _stack()
    doc = owner.publish("<a/>", RULES, to=[], doc_id="doc")
    community.enroll("late")
    doc.grant("late")
    wrapped = community.store.get("doc").wrapped_keys["late"]
    pki = community.pki
    assert pki.unwrap_secret("late", "owner", wrapped) == doc._owner_secret()
