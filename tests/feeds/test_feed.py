"""The Feed subsystem: tier views, key economics, membership.

The acceptance contracts of the tiered-feeds PR live here:

* per-tier views are byte-identical to an equivalent flat ``Channel``
  broadcast of the same composed policy;
* a carousel cycle performs ZERO key wraps and ZERO policy compiles,
  however many members subscribed;
* a join costs exactly one PKI wrap, ever;
* revoking a member performs exactly ONE re-wrap plus an epoch bump,
  regardless of member and document count.
"""

import pytest

from repro.community import Community, TierSpec
from repro.core.nfa import compile_call_count
from repro.crypto.groupkey import wrap_call_count
from repro.errors import KeyNotGranted, PolicyError
from repro.feeds import compose_rules, feed_doc_id
from repro.feeds.keys import member_recipient, resolve_doc_secret, resolve_tier_keys

REPORT = (
    "<report><summary>sum</summary>"
    "<body>text<secret>classified</secret></body></report>"
)
TIERS = [
    TierSpec("public", allow=("/report/summary",)),
    TierSpec("partner", allow=("/report",), drop=("secret",)),
    TierSpec("internal", allow=("/report",)),
]


def _feed_community(subscribers=(("alice", "public"), ("bob", "partner"), ("carol", "internal"))):
    community = Community()
    owner = community.enroll("owner")
    for name, __ in subscribers:
        community.enroll(name, strict_memory=False)
    feed = community.feed("intel", owner=owner, tiers=TIERS)
    feed.publish(REPORT, doc_id="rpt")
    handles = {
        name: feed.subscribe(name, tier) for name, tier in subscribers
    }
    return community, feed, handles


def test_tier_views_filter_by_tier():
    __, feed, handles = _feed_community()
    feed.broadcast(cycles=2)
    for handle in handles.values():
        handle.require_ok()
    assert handles["alice"].view == "<report><summary>sum</summary></report>"
    assert "<secret>" not in handles["bob"].view
    assert "<body>" in handles["bob"].view
    assert "<secret>classified</secret>" in handles["carol"].view


def test_tier_views_byte_identical_to_flat_channel():
    """A feed tier delivers EXACTLY what a flat per-member channel
    with the same composed policy delivers -- the group-key hierarchy
    changes key economics, never bytes."""
    __, feed, handles = _feed_community()
    feed.broadcast()

    flat = Community()
    owner = flat.enroll("owner")
    members = {
        name: flat.enroll(name, strict_memory=False)
        for name in ("alice", "bob", "carol")
    }
    doc = owner.publish(
        REPORT, compose_rules("intel", TIERS), to=list(members.values()),
        doc_id="rpt",
    )
    channel = flat.channel(doc)
    flat_handles = {
        name: channel.subscribe(
            member, groups=frozenset({f"feed:intel:{tier}"})
        )
        for (name, member), tier in zip(
            members.items(), ("public", "partner", "internal")
        )
    }
    channel.broadcast()
    for name, handle in handles.items():
        assert flat_handles[name].ok
        assert handle.view == flat_handles[name].view


def test_preview_is_one_lane_per_tier_and_matches_cards():
    __, feed, handles = _feed_community()
    feed.broadcast()
    preview = feed.preview()
    assert set(preview) == {"public", "partner", "internal"}
    assert preview["public"] == handles["alice"].view
    assert preview["partner"] == handles["bob"].view
    assert preview["internal"] == handles["carol"].view


def test_double_subscribe_refused_at_the_feed_layer():
    __, feed, __ = _feed_community()
    with pytest.raises(PolicyError, match="already subscribed"):
        feed.subscribe("alice", "public")
    # ... including to a DIFFERENT tier: one card, one session stream.
    with pytest.raises(PolicyError, match="already subscribed"):
        feed.subscribe("alice", "internal")


def test_join_costs_exactly_one_wrap():
    community, feed, __ = _feed_community()
    community.enroll("dave", strict_memory=False)
    before = wrap_call_count()
    feed.subscribe("dave", "partner")
    assert wrap_call_count() - before == 1


def test_carousel_cycle_costs_zero_wraps_and_zero_compiles():
    __, feed, handles = _feed_community()
    feed.broadcast()  # first cycle warms the compiled-policy cache
    wraps = wrap_call_count()
    compiles = compile_call_count()
    feed.broadcast(cycles=3)
    assert wrap_call_count() == wraps
    assert compile_call_count() == compiles
    for handle in handles.values():
        handle.require_ok()


def test_publish_costs_one_wrap_per_tier_not_per_member():
    __, feed, __ = _feed_community()
    before = wrap_call_count()
    feed.publish("<report><summary>two</summary><body>b</body></report>")
    assert wrap_call_count() - before == len(feed.tiers)


def test_revocation_is_exactly_one_rewrap_plus_epoch_bump():
    community, feed, handles = _feed_community()
    feed.broadcast()
    store = community.store
    assert (
        member_recipient("intel", "partner", "bob")
        in store.get(feed_doc_id("intel")).wrapped_keys
    )
    before = wrap_call_count()
    epoch_before = feed.epoch("partner")
    feed.revoke("bob")
    assert wrap_call_count() - before == 1
    assert feed.epoch("partner") == epoch_before + 1
    assert (
        member_recipient("intel", "partner", "bob")
        not in store.get(feed_doc_id("intel")).wrapped_keys
    )
    # Unrelated tiers keep their epoch.
    assert feed.epoch("public") == 1
    assert feed.epoch("internal") == 1


def test_tier_revocation_does_not_rotate_the_content_key():
    """The documented contract: a revoke bumps the tier epoch and
    re-wraps ``C_tier`` once, but never rotates ``C_tier`` itself.  Keys
    a member resolved before the revoke still unwrap documents
    published after it; only the DSP fetch path is cut off."""
    community, feed, __ = _feed_community()
    dsp, pki = community.dsp, community.pki
    retained = resolve_tier_keys(dsp, pki, "intel", "partner", "owner", "bob")
    before = wrap_call_count()
    feed.revoke("bob")
    assert wrap_call_count() - before == 1
    later = feed.publish("<report><summary>later</summary></report>", doc_id="later")
    secret = resolve_doc_secret(dsp, retained, "intel", "partner", later.doc_id)
    assert secret == later._owner_secret()
    with pytest.raises(KeyNotGranted):
        resolve_tier_keys(dsp, pki, "intel", "partner", "owner", "bob")


def test_revoked_member_is_detached_and_denied_catch_up():
    __, feed, handles = _feed_community()
    feed.broadcast()
    frozen = handles["bob"].view
    feed.revoke("bob")
    feed.broadcast(cycles=2)
    assert handles["bob"].view == frozen  # detached: view never grows
    with pytest.raises(KeyNotGranted):
        handles["bob"].require_ok()
    with pytest.raises(KeyNotGranted):
        feed.catch_up("bob")
    assert "bob" not in feed.members


def test_remaining_members_unaffected_by_revocation():
    __, feed, handles = _feed_community()
    feed.broadcast()
    carol_before = handles["carol"].view
    feed.revoke("bob")
    feed.broadcast()
    handles["carol"].require_ok()
    handles["alice"].require_ok()
    assert handles["carol"].view == carol_before  # cycle 2 deduplicated


def test_revoked_member_may_rejoin():
    """Revocation is a membership change, not a ban: a fresh subscribe
    re-wraps the tier master for the member under the new epoch."""
    __, feed, __ = _feed_community()
    feed.revoke("bob")
    handle = feed.subscribe("bob", "public")
    feed.broadcast()
    handle.require_ok()
    assert handle.view == "<report><summary>sum</summary></report>"


def test_quota_caps_documents_per_cycle():
    community = Community()
    owner = community.enroll("owner")
    community.enroll("alice", strict_memory=False)
    community.enroll("bob", strict_memory=False)
    feed = community.feed(
        "digest",
        owner=owner,
        tiers=[
            TierSpec("lite", allow=("/r",), quota=1),
            TierSpec("full", allow=("/r",)),
        ],
    )
    feed.publish("<r>one</r>", doc_id="d1")
    feed.publish("<r>two</r>", doc_id="d2")
    lite = feed.subscribe("alice", "lite")
    full = feed.subscribe("bob", "full")
    feed.broadcast()
    lite.require_ok()
    full.require_ok()
    assert list(lite.views) == ["d1"]
    assert list(full.views) == ["d1", "d2"]
    assert full.view == "<r>one</r><r>two</r>"
    assert feed.preview()["lite"] == lite.view
    assert feed.preview()["full"] == full.view


def test_multi_document_views_accumulate_in_cycle_order():
    __, feed, handles = _feed_community()
    feed.publish(
        "<report><summary>second</summary><body>b2</body></report>",
        doc_id="rpt2",
    )
    feed.broadcast(cycles=2)
    assert list(handles["alice"].views) == ["rpt", "rpt2"]
    assert handles["alice"].view == (
        "<report><summary>sum</summary></report>"
        "<report><summary>second</summary></report>"
    )
    assert handles["alice"].docs_complete == 2
    # Two sessions: the metrics must name the document.
    assert handles["alice"].metrics_for("rpt2").apdu_count > 0
    with pytest.raises(PolicyError, match="metrics_for"):
        handles["alice"].metrics


def test_subscriber_joining_after_publish_needs_no_regrant():
    """A document published BEFORE a member joined unlocks through the
    tier content key -- no per-member grant ever existed."""
    community, feed, __ = _feed_community()
    community.enroll("erin", strict_memory=False)
    handle = feed.subscribe("erin", "internal")
    feed.broadcast()
    handle.require_ok()
    assert "<secret>classified</secret>" in handle.view


def test_unknown_tier_and_unknown_member_raise():
    community, feed, __ = _feed_community()
    community.enroll("zed", strict_memory=False)
    with pytest.raises(PolicyError, match="no tier"):
        feed.subscribe("zed", "platinum")
    with pytest.raises(PolicyError):
        feed.subscribe("nobody", "public")
    with pytest.raises(PolicyError, match="not subscribed"):
        feed.revoke("owner")


def test_feed_accessor_contract():
    community, feed, __ = _feed_community()
    assert community.feed("intel") is feed
    assert community.feeds == [feed]
    with pytest.raises(PolicyError, match="already exists"):
        community.feed("intel", owner="owner", tiers=TIERS)
    with pytest.raises(PolicyError, match="no feed"):
        community.feed("ghost")
    with pytest.raises(PolicyError, match="at least one tier"):
        community.feed("empty", owner="owner", tiers=[])
    with pytest.raises(PolicyError, match="no ':'"):
        community.feed("a:b", owner="owner", tiers=TIERS)


def test_member_subscribe_sugar():
    community = Community()
    owner = community.enroll("owner")
    alice = community.enroll("alice", strict_memory=False)
    feed = community.feed(
        "intel", owner=owner, tiers=[TierSpec("public", allow=("/r",))]
    )
    feed.publish("<r>x</r>")
    handle = alice.subscribe("intel", "public")
    feed.broadcast()
    handle.require_ok()
    assert handle.view == "<r>x</r>"
