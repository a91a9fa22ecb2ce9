"""Integration tests: a member's card proxy against card and DSP."""

import pytest

from repro.community import Community
from repro.core import AccessRule, RuleSet, reference_view
from repro.core.delivery import ViewMode
from repro.errors import KeyNotGranted
from repro.smartcard.applet import PendingStrategy
from repro.terminal.proxy import ProxyError
from repro.xmlstream.tree import parse_tree
from repro.xmlstream.writer import write_string

DOC = (
    "<notes><note><to>alice</to><body>hello</body></note>"
    "<note><to>bob</to><body>secret plan</body></note></notes>"
)
RULES = RuleSet([
    AccessRule.parse("+", "alice", '//note[to = "alice"]', rule_id="S0"),
    AccessRule.parse("+", "bob", '//note[to = "bob"]', rule_id="S1"),
])


def _stack():
    community = Community()
    owner = community.enroll("owner")
    community.enroll("alice")
    community.enroll("bob")
    doc = owner.publish(DOC, RULES, to=["alice", "bob"], doc_id="notes")
    return community, doc


def _pull(member, doc_id="notes", **kwargs):
    """Unlock the document on the member's card, run one buffered pull."""
    member.unlock(doc_id, "owner")
    return member.proxy.query(doc_id, member.name, **kwargs)


def test_each_user_sees_own_view():
    community, __ = _stack()
    for user in ("alice", "bob"):
        outcome = _pull(community.member(user))
        expected = write_string(reference_view(parse_tree(DOC), RULES, user))
        assert outcome.xml == expected
        assert outcome.metrics.apdu_count > 0
        assert outcome.metrics.clock.total() > 0


def test_query_restriction_applies():
    community, __ = _stack()
    outcome = _pull(community.member("alice"), query="//body")
    expected = write_string(
        reference_view(parse_tree(DOC), RULES, "alice", query="//body")
    )
    assert outcome.xml == expected


def test_unauthorized_user_has_no_wrapped_key():
    community, __ = _stack()
    eve = community.enroll("eve")
    with pytest.raises(KeyNotGranted):
        _pull(eve)


def test_unlock_is_idempotent():
    community, __ = _stack()
    alice = community.member("alice")
    alice.unlock("notes", "owner")
    requests = community.dsp.requests
    alice.unlock("notes", "owner")
    assert community.dsp.requests == requests  # no second key fetch
    outcome = alice.proxy.query("notes", "alice")
    assert "alice" in outcome.xml


def test_policy_update_changes_view_without_reencryption():
    community, doc = _stack()
    alice = community.member("alice")
    before = _pull(alice)
    assert "hello" in before.xml
    new_rules = RuleSet([
        AccessRule.parse("+", "alice", '//note[to = "alice"]', rule_id="S0"),
        AccessRule.parse("-", "alice", "//body", rule_id="S2"),
    ])
    receipt = doc.update_rules(new_rules)
    assert receipt.document_bytes_encrypted == 0
    after = _pull(alice)
    assert "hello" not in after.xml
    expected = write_string(reference_view(parse_tree(DOC), new_rules, "alice"))
    assert after.xml == expected


def test_refetch_strategy_returns_fragments():
    # Refetch applies when the pending predicate resolves *outside* the
    # candidate subtree: here the body streams before the to field, so
    # at <body> the [to=...] condition is still open, the body subtree
    # is irrelevant to it, and the card skips it for later refetch.
    document = (
        "<notes><note><body>hello alice</body><to>alice</to></note>"
        "<note><body>bob stuff</body><to>bob</to></note></notes>"
    )
    rules = RuleSet([
        AccessRule.parse("+", "alice", '//note[to = "alice"]/body', rule_id="R0"),
    ])
    community = Community()
    owner = community.enroll("owner")
    alice = community.enroll("alice")
    owner.publish(document, rules, to=[alice], doc_id="mail", chunk_size=32)
    outcome = _pull(alice, "mail", strategy=PendingStrategy.REFETCH)
    assert outcome.metrics.refetch_count >= 1
    combined = outcome.xml + "".join(text for __, text in outcome.fragments)
    assert "hello alice" in combined
    assert "bob stuff" not in combined
    # The buffering strategy must agree on delivered content.
    buffered = _pull(alice, "mail", strategy=PendingStrategy.BUFFER)
    assert "hello alice" in buffered.xml
    assert (
        buffered.metrics.max_pending_bytes > outcome.metrics.max_pending_bytes
    )


def test_prune_view_mode_through_stack():
    community, __ = _stack()
    outcome = _pull(community.member("alice"), view_mode=ViewMode.PRUNE)
    expected = write_string(
        reference_view(parse_tree(DOC), RULES, "alice", mode=ViewMode.PRUNE)
    )
    assert outcome.xml == expected


def test_proxy_error_carries_status():
    community, __ = _stack()
    proxy = community.member("alice").proxy
    proxy.provision_key("notes", b"wrong-key-16byte")
    with pytest.raises(ProxyError) as info:
        proxy.query("notes", "alice")
    assert info.value.status is not None
