"""End-to-end security tests (experiment E9's test matrix).

Every adversarial behaviour of the untrusted DSP or channel must be
detected by the card: modification, substitution, reordering,
truncation and version replay.
"""

import pytest

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.dsp import tamper
from repro.terminal.proxy import ProxyError

DOC = "<r>" + "".join(f"<item>{i:04d}</item>" for i in range(40)) + "</r>"
RULES = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="I0")])


def _stack(doc=DOC):
    community = Community()
    owner = community.enroll("owner")
    community.enroll("u")
    owner.publish(doc, RULES, to=["u"], doc_id="d", chunk_size=64)
    return community.store, community, owner


def _pull(community):
    """One buffered pull of ``d`` through ``u``'s card."""
    reader = community.member("u")
    reader.unlock("d", "owner")
    return reader.proxy.query("d", "u")


def _expect_security_failure(community):
    with pytest.raises(ProxyError) as info:
        _pull(community)
    assert info.value.status == 0x6982  # SECURITY_STATUS_NOT_SATISFIED


def test_clean_session_succeeds():
    __, community, ___ = _stack()
    assert "0001" in _pull(community).xml


def test_modified_chunk_detected():
    store, community, __ = _stack()
    container = store.get("d").container
    tamper.install(store, tamper.corrupt_chunk(container, index=3))
    _expect_security_failure(community)


def test_reordered_chunks_detected():
    store, community, __ = _stack()
    container = store.get("d").container
    tamper.install(store, tamper.swap_chunks(container, 1, 2))
    _expect_security_failure(community)


def test_cross_document_substitution_detected():
    store, community, owner = _stack()
    owner.publish(DOC, RULES, to=["u"], doc_id="other", chunk_size=64)
    container = store.get("d").container
    other = store.get("other").container
    tamper.install(store, tamper.substitute_chunk(container, 2, other, 2))
    _expect_security_failure(community)


def test_truncation_with_forged_header_detected():
    store, community, __ = _stack()
    container = store.get("d").container
    tamper.install(store, tamper.truncate(container, keep=2))
    _expect_security_failure(community)


def test_truncation_with_original_header_detected():
    store, community, __ = _stack()
    container = store.get("d").container
    tamper.install(store, tamper.truncate_keeping_header(container, keep=2))
    with pytest.raises((ProxyError, IndexError)):
        _pull(community)


def test_version_replay_detected():
    store, community, owner = _stack()
    old_container = store.get("d").container
    owner.publish(
        "<r><item>new</item></r>", RULES, to=["u"], doc_id="d", chunk_size=64
    )
    assert "new" in _pull(community).xml  # register -> v2
    tamper.install(store, tamper.replay(old_container))
    # Detection lives in *this card's* monotonic version register: the
    # stale container is cryptographically valid, so a brand-new card
    # would accept it -- the one that saw v2 must not.
    with pytest.raises(ProxyError) as info:
        _pull(community)
    assert info.value.status == 0x6982


def test_rule_record_tampering_detected():
    store, community, __ = _stack()
    stored = store.get("d")
    bad = bytearray(stored.rule_records[0])
    bad[1] ^= 0xFF
    stored.rule_records[0] = bytes(bad)
    _expect_security_failure(community)


def test_dsp_sees_only_ciphertext():
    """No plaintext fragment of the document may appear at the DSP."""
    store, __, ___ = _stack()
    stored = store.get("d")
    blob = b"".join(stored.container.chunks)
    assert b"item" not in blob
    assert b"0001" not in blob
    for record in stored.rule_records:
        assert b"/r" not in record
