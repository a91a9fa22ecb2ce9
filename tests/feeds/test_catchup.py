"""Late-joiner catch-up: snapshots, invalidation, durability, codec."""

import pytest

from repro.community import Community, TierSpec
from repro.dsp.backends import MemoryBackend, SQLiteBackend
from repro.dsp.freshness import Freshness
from repro.errors import PolicyError, TamperDetected
from repro.feeds import CycleSnapshot, decode_snapshot, encode_snapshot
from repro.smartcard.resources import CostModel

REPORT = (
    "<report><summary>sum</summary>"
    "<body>text<secret>classified</secret></body></report>"
)
TIERS = [
    TierSpec("public", allow=("/report/summary",)),
    TierSpec("internal", allow=("/report",)),
]


def _build(community):
    owner = community.enroll("owner")
    community.enroll("alice", strict_memory=False)
    community.enroll("bob", strict_memory=False)
    community.enroll("late", strict_memory=False)
    feed = community.feed("intel", owner=owner, tiers=TIERS)
    feed.publish(REPORT, doc_id="rpt")
    return feed


def test_catch_up_view_is_byte_identical_to_live_cycle():
    """The differential contract: a late joiner who replays the
    snapshot sees EXACTLY what a member who listened live saw."""
    community = Community()
    feed = _build(community)
    live = feed.subscribe("alice", "internal")
    feed.subscribe("late", "internal")  # joined, but missed the cycle
    feed.broadcast()
    live.require_ok()
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == live.view
    assert caught.docs_complete == live.docs_complete == 1


def test_catch_up_per_tier_views_differ():
    community = Community()
    feed = _build(community)
    pub = feed.subscribe("alice", "public")
    feed.subscribe("bob", "internal")
    feed.subscribe("late", "public")
    feed.broadcast()
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == pub.view == "<report><summary>sum</summary></report>"
    internal = feed.catch_up("bob")
    internal.require_ok()
    assert "<secret>classified</secret>" in internal.view


def test_catch_up_before_any_broadcast_synthesizes_from_store():
    """A live feed can serve catch-up even if no cycle ever ran: the
    snapshot is rebuilt from the stored corpus on demand."""
    community = Community()
    feed = _build(community)
    feed.subscribe("late", "internal")
    caught = feed.catch_up("late")
    caught.require_ok()
    assert "<secret>classified</secret>" in caught.view


def test_catch_up_is_one_shot_and_detached():
    """The catch-up handle never attaches to the live lane -- a member
    holding both a live and a catch-up handle must not run two card
    sessions during the next cycle."""
    community = Community()
    feed = _build(community)
    live = feed.subscribe("alice", "internal")
    feed.broadcast()
    caught = feed.catch_up("alice")
    frozen = caught.view
    feed.broadcast(cycles=2)
    assert caught.view == frozen
    live.require_ok()
    assert feed.handles("internal") == [live]


def test_republish_invalidates_snapshot():
    community = Community()
    feed = _build(community)
    feed.subscribe("late", "internal")
    feed.broadcast()
    feed.publish(
        "<report><summary>v2</summary><body>b2</body></report>",
        doc_id="rpt",
    )  # republish WITHOUT a new broadcast
    caught = feed.catch_up("late")
    caught.require_ok()
    assert "v2" in caught.view
    assert "classified" not in caught.view


def test_revocation_invalidates_snapshot_for_remaining_members():
    """After a tier revoke the old snapshot (old epoch) must never be
    served: the surviving member's catch-up is rebuilt under the new
    epoch."""
    community = Community()
    feed = _build(community)
    feed.subscribe("alice", "internal")
    feed.subscribe("bob", "internal")
    feed.broadcast()
    feed.revoke("bob")
    caught = feed.catch_up("alice")
    caught.require_ok()
    assert "<secret>classified</secret>" in caught.view
    assert feed.epoch("internal") == 2


def test_durable_reopen_serves_catch_up(tmp_path):
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    live = feed.subscribe("late", "internal")
    feed.broadcast()
    live.require_ok()
    live_view = live.view
    community.close()

    reopened = Community.open(path)
    restored = reopened.feed("intel")
    assert restored.sealed
    assert [spec.name for spec in restored.tiers] == ["public", "internal"]
    assert [doc.doc_id for doc in restored.documents] == ["rpt"]
    caught = restored.catch_up("late")
    caught.require_ok()
    assert caught.view == live_view
    assert restored.epoch("internal") == 1
    reopened.close()


def test_sealed_feed_refuses_owner_operations(tmp_path):
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.broadcast()
    community.close()

    reopened = Community.open(path)
    restored = reopened.feed("intel")
    with pytest.raises(PolicyError, match="sealed"):
        restored.publish("<r>x</r>")
    with pytest.raises(PolicyError, match="sealed"):
        restored.subscribe("late", "internal")
    with pytest.raises(PolicyError, match="sealed"):
        restored.broadcast()
    with pytest.raises(PolicyError, match="sealed"):
        restored.revoke("late")
    with pytest.raises(PolicyError, match="sealed"):
        restored.preview()
    reopened.close()


def test_sealed_feed_with_stale_snapshot_raises(tmp_path):
    """A republish after the last broadcast makes the persisted cycle
    stale; a sealed handle cannot rebuild it and must say so rather
    than serve old bytes."""
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    feed.broadcast()
    feed.publish(
        "<report><summary>v2</summary><body>b2</body></report>",
        doc_id="rpt",
    )  # no rebroadcast
    community.close()

    reopened = Community.open(path)
    with pytest.raises(PolicyError, match="is stale"):
        reopened.feed("intel").catch_up("late")
    reopened.close()


def test_sealed_feed_never_broadcast_raises(tmp_path):
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    community.close()

    reopened = Community.open(path)
    with pytest.raises(PolicyError, match="never recorded"):
        reopened.feed("intel").catch_up("late")
    reopened.close()


def test_memory_backend_catches_up_without_persistence():
    """The in-memory store has no snapshot table; live feeds rebuild
    from the corpus so catch-up still works."""
    community = Community()
    feed = _build(community)
    feed.subscribe("late", "public")
    feed.broadcast()
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == "<report><summary>sum</summary></report>"


# -- snapshot codec -------------------------------------------------------


def _snapshot():
    return CycleSnapshot(
        feed="intel",
        tier="internal",
        epoch=3,
        freshness=Freshness(17, "deadbeefcafef00d", ((2, 1), (1, 1))),
        doc_ids=("rpt", "memo"),
        frames=(
            ("header", 0, b"\x00\x01header"),
            ("chunk", 0, b"chunk-zero"),
            ("chunk", 1, b""),
            ("end", 0, b""),
        ),
    )


def test_snapshot_codec_roundtrip():
    snapshot = _snapshot()
    assert decode_snapshot(encode_snapshot(snapshot)) == snapshot


def test_snapshot_codec_rejects_corruption():
    blob = encode_snapshot(_snapshot())
    with pytest.raises(TamperDetected):
        decode_snapshot(blob[:-3])  # truncated
    with pytest.raises(TamperDetected):
        decode_snapshot(b"XXXXXX\n" + blob[7:])  # bad magic
    with pytest.raises(TamperDetected):
        decode_snapshot(blob + b"\x00")  # trailing bytes


def test_sqlite_backend_stores_feed_snapshots(tmp_path):
    backend = SQLiteBackend(tmp_path / "dsp.db")
    try:
        assert backend.get_feed_snapshot("intel", "public") is None
        backend.put_feed_snapshot("intel", "public", b"blob", epoch=2)
        assert backend.get_feed_snapshot("intel", "public") == b"blob"
        assert backend.delete_feed_snapshot("intel", "public") is True
        assert backend.delete_feed_snapshot("intel", "public") is False
    finally:
        backend.close()


def test_memory_backend_skips_snapshot_persistence():
    """A volatile store cannot persist snapshots: broadcast skips that
    silently, never with an error -- its contract is 'persisted when
    the store is durable' -- and a catch-up that lost the live cycle
    rebuilds it from the stored corpus."""
    community = Community(backend=MemoryBackend())
    assert community.store.durable_backend is None  # nowhere to persist
    feed = _build(community)
    live = feed.subscribe("alice", "internal")
    feed.subscribe("late", "internal")
    feed.broadcast()
    live.require_ok()
    feed._tier("internal").last_cycle = None  # nothing persisted to reread
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == live.view


def test_feed_broadcast_works_on_memory_backend():
    """Regression: broadcast() on a community handed a MemoryBackend
    must not crash on snapshot persistence, and catch-up serves the
    live view."""
    community = Community(backend=MemoryBackend())
    feed = _build(community)
    live = feed.subscribe("alice", "internal")
    feed.subscribe("late", "internal")
    feed.broadcast()
    live.require_ok()
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == live.view


def test_reopened_process_generation_coincidence_is_not_trusted(tmp_path):
    """The store's generation counter restarts at 0 per process, so a
    reopened process can coincidentally reach the counter a persisted
    snapshot was stamped with; the boot id must keep that from
    short-circuiting the piecewise staleness checks."""
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    feed.broadcast()
    blob = community.store.backend.get_feed_snapshot("intel", "internal")
    stamped = decode_snapshot(blob).freshness.generation
    feed.publish(
        "<report><summary>v2</summary><body>b2</body></report>",
        doc_id="rpt",
    )  # stale now: republish without a rebroadcast
    community.close()

    reopened = Community.open(path)
    store = reopened.store
    assert store.generation < stamped
    while store.generation < stamped:
        store.put_wrapped_key("rpt", f"pump:{store.generation}", b"\x00")
    assert store.generation == stamped  # the coincidence under test
    with pytest.raises(PolicyError, match="is stale"):
        reopened.feed("intel").catch_up("late")
    reopened.close()


# -- push-path goldens ----------------------------------------------------

#: ``community.clock.snapshot()`` after one feed broadcast (two live
#: members on two tiers, one detached member) and one catch-up, as
#: recorded before the push path was merged into one core; ``card_cpu``
#: was re-pinned to ``FEED_CARD_CYCLES / cpu_hz`` when the card CPU
#: became an integer cycle ledger.  ``repr`` floats round-trip exactly,
#: so the comparison is bit-for-bit.
FEED_CLOCK = {
    "network": 0.100384,
    "broadcast": 0.000957489013671875,
    "link": 0.12639843750000002,
    "eeprom": 0.0049499999999999995,
    "link:alice": 0.44069140625000003,
    "link:bob": 0.39918750000000003,
    "link:late": 0.43971484375000003,
    "card_cpu": 0.004256181818181818,
}
#: The card cycles behind ``FEED_CLOCK["card_cpu"]``, summed over every
#: member's card.
FEED_CARD_CYCLES = 140454


def _two_document_feed(community):
    feed = _build(community)
    feed.publish(
        "<report><summary>two</summary><body>b<secret>s2</secret></body>"
        "</report>",
        doc_id="rpt2",
    )
    return feed


def test_broadcast_and_catch_up_clock_golden():
    community = Community()
    feed = _two_document_feed(community)
    live = [feed.subscribe("alice", "internal"), feed.subscribe("bob", "public")]
    feed.subscribe("late", "internal", attach=False)
    feed.broadcast()
    caught = feed.catch_up("late")
    for handle in (*live, caught):
        handle.require_ok()
    assert caught.view == live[0].view
    assert community.clock.snapshot() == FEED_CLOCK
    cycles = sum(member.card.soe.cycles_used for member in community.members)
    assert cycles == FEED_CARD_CYCLES
    assert FEED_CLOCK["card_cpu"] == FEED_CARD_CYCLES / CostModel().cpu_hz


def test_catch_up_frames_equal_the_live_lane_byte_for_byte(tmp_path):
    """The persisted catch-up snapshot carries exactly the frames a
    listener on the live tier lane heard in the same cycle."""
    community = Community(store_path=tmp_path / "community.db")
    feed = _two_document_feed(community)
    heard = []
    feed._tier("internal").channel.subscribe(
        lambda kind, index, payload: heard.append((kind, index, payload))
    )
    feed.broadcast()
    blob = community.store.backend.get_feed_snapshot("intel", "internal")
    snapshot = decode_snapshot(blob)
    assert snapshot.doc_ids == ("rpt", "rpt2")
    assert [kind for kind, __, __ in heard].count("header") == 2
    assert snapshot.frames == tuple(heard)
    community.close()
