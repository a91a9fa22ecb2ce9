"""Handle-model behavior of the Community facade."""

import pytest

from repro.community import Community, Document, Member
from repro.errors import (
    AccessDenied,
    KeyNotGranted,
    PolicyError,
    ReproError,
    UnknownDocument,
)

DOC = "<notes><work>plan</work><diary>secret</diary></notes>"
RULES = [("+", "bob", "/notes"), ("-", "bob", "//diary")]


def _community():
    community = Community()
    alice = community.enroll("alice")
    bob = community.enroll("bob")
    return community, alice, bob


def test_enroll_is_idempotent_and_typed():
    community, alice, __ = _community()
    assert community.enroll("alice") is alice
    assert isinstance(alice, Member)
    with pytest.raises(PolicyError, match="card configuration"):
        community.enroll("alice", ram_quota=64)
    with pytest.raises(PolicyError, match="'mallory'"):
        community.member("mallory")


def test_publish_returns_document_handle():
    community, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob])
    assert isinstance(doc, Document)
    assert doc.owner is alice
    assert doc.recipients == ["bob"]
    assert community.document(doc.doc_id) is doc
    assert doc.receipt.keys_distributed == 1
    with pytest.raises(UnknownDocument):
        community.document("nope")


def test_auto_doc_ids_are_deterministic():
    community, alice, bob = _community()
    first = alice.publish(DOC, RULES, to=[bob])
    second = alice.publish(DOC, RULES, to=[bob])
    assert first.doc_id == "alice-doc-1"
    assert second.doc_id == "alice-doc-2"


def test_open_and_query_through_the_handle():
    __, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob])
    with bob.open(doc) as session:
        assert session.query().text() == "<notes><work>plan</work></notes>"
    # By id string too.
    with bob.open(doc.doc_id) as session:
        assert session.query().text() == "<notes><work>plan</work></notes>"


def test_update_rules_reseals_nothing_but_rules():
    __, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob])
    receipt = doc.update_rules([("+", "bob", "/notes")])
    assert receipt.document_bytes_encrypted == 0
    assert receipt.keys_distributed == 0
    assert receipt.rule_bytes_encrypted > 0
    with bob.open(doc) as session:
        view = session.query().text()
    assert "<diary>" in view  # the deny is gone


def test_grant_and_revoke():
    community, alice, __ = _community()
    carol = community.enroll("carol")
    doc = alice.publish(DOC, [("+", "carol", "/notes")], to=[])
    with pytest.raises(KeyNotGranted) as info:
        carol.open(doc)
    assert doc.doc_id in str(info.value) and "'carol'" in str(info.value)
    assert isinstance(info.value, AccessDenied)  # taxonomy: still denied
    doc.grant(carol)
    assert "carol" in doc.recipients
    with carol.open(doc) as session:
        assert "<work>" in session.query().text()
    assert doc.revoke(carol) is True
    assert doc.revoke(carol) is False
    assert "carol" not in doc.recipients
    # A fresh member (fresh card) can no longer unlock.
    community2, alice2, bob2 = _community()
    doc2 = alice2.publish(DOC, RULES, to=[bob2])
    doc2.revoke(bob2)
    with pytest.raises(KeyNotGranted):
        bob2.open(doc2)


def test_publish_ownership_is_enforced():
    __, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob], doc_id="shared")
    with pytest.raises(PolicyError, match="belongs to"):
        bob.publish(DOC, RULES, to=[], doc_id="shared")
    # The owner republishing the same id updates the handle in place.
    again = alice.publish(
        "<notes><work>v2</work></notes>", RULES, to=[bob], doc_id="shared"
    )
    assert again is doc
    with bob.open(doc) as session:
        assert session.query().text() == "<notes><work>v2</work></notes>"


def test_unenrolled_recipient_is_policy_error():
    __, alice, __ = _community()
    with pytest.raises(PolicyError, match="'zoe'"):
        alice.publish(DOC, RULES, to=["zoe"])


def test_closed_session_refuses_queries():
    __, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob])
    with bob.open(doc) as session:
        session.query().finish()
    with pytest.raises(PolicyError, match="closed"):
        session.query()


def test_everything_is_a_repro_error():
    community, alice, bob = _community()
    doc = alice.publish(DOC, RULES, to=[bob])
    for exc in (PolicyError, UnknownDocument, KeyNotGranted):
        assert issubclass(exc, ReproError)
    # The facade never leaks a bare KeyError message: the typed errors
    # stringify as their message even though they remain KeyErrors.
    try:
        community.document("ghost")
    except UnknownDocument as error:
        assert str(error) == "the store holds no document 'ghost'" or (
            "ghost" in str(error)
        )
        assert isinstance(error, KeyError)
    assert doc is not None


def test_republishing_a_sealed_document_is_refused_before_any_write(tmp_path):
    """A reopened community holds no document secret, so a republish
    there would seal under a fresh secret while the old wrapped keys
    stay on the shelf, breaking every reader.  It must be refused
    before the store is touched."""
    path = tmp_path / "dsp.db"
    community = Community(store_path=path)
    owner = community.enroll("owner")
    bob = community.enroll("bob")
    owner.publish("<r><a>1</a></r>", [("+", "bob", "/r")], to=[bob], doc_id="d")
    with bob.open("d") as session:
        v1 = session.query().text()
    community.close()

    reopened = Community.open(path)
    store = reopened.store
    before = store.get("d")
    snapshot = (
        before.container,
        before.rules_version,
        list(before.rule_records),
        dict(before.wrapped_keys),
    )
    with pytest.raises(PolicyError, match="sealed"):
        reopened.member("owner").publish(
            "<r><a>2</a></r>", [("+", "bob", "/r")], to=[], doc_id="d"
        )
    after = store.get("d")
    assert after.container.header.version == 1
    assert (
        after.container,
        after.rules_version,
        list(after.rule_records),
        dict(after.wrapped_keys),
    ) == snapshot
    with reopened.member("bob").open("d") as session:
        assert session.query().text() == v1 == "<r><a>1</a></r>"
    reopened.close()
