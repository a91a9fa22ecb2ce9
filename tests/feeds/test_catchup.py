"""Late-joiner catch-up: replay from the store, durability, goldens."""

import sqlite3

import pytest

from repro.community import Community, TierSpec
from repro.dissemination import SubscriberHandle
from repro.dsp.backends import MemoryBackend
from repro.errors import PolicyError
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


def test_sealed_feed_catch_up_serves_the_republished_version(tmp_path):
    """A republish after the last broadcast is what a sealed handle's
    catch-up serves: the cycle is read from the stored containers."""
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    feed.broadcast()
    feed.publish(
        "<report><summary>v2</summary><body>b2</body></report>",
        doc_id="rpt",
    )  # no rebroadcast
    expected = feed.preview()["internal"]
    community.close()

    reopened = Community.open(path)
    caught = reopened.feed("intel").catch_up("late")
    caught.require_ok()
    assert caught.view == expected
    assert "v2" in caught.view
    reopened.close()


def test_sealed_feed_catches_up_without_a_broadcast(tmp_path):
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    expected = feed.preview()["internal"]
    community.close()

    reopened = Community.open(path)
    caught = reopened.feed("intel").catch_up("late")
    caught.require_ok()
    assert caught.view == expected
    reopened.close()


def test_leftover_snapshot_table_is_never_read(tmp_path):
    """A store file written by an older build may hold a
    ``feed_snapshots`` table; catch-up never reads it, junk or not."""
    path = tmp_path / "community.db"
    community = Community(store_path=path)
    feed = _build(community)
    feed.subscribe("late", "internal")
    feed.broadcast()
    before = feed.catch_up("late")
    before.require_ok()
    community.close()
    with sqlite3.connect(path) as conn:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS feed_snapshots (feed TEXT NOT NULL, "
            "tier TEXT NOT NULL, epoch INTEGER NOT NULL, blob BLOB NOT NULL, "
            "PRIMARY KEY (feed, tier)) WITHOUT ROWID"
        )
        conn.execute(
            "INSERT OR REPLACE INTO feed_snapshots VALUES (?, ?, ?, ?)",
            ("intel", "internal", 1, b"\x00junk\xff" * 8),
        )
    conn.close()

    reopened = Community.open(path)
    caught = reopened.feed("intel").catch_up("late")
    caught.require_ok()
    assert caught.view == before.view
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


def test_feed_broadcast_works_on_memory_backend():
    """Regression: broadcast() on a community handed a MemoryBackend
    must not crash on snapshot persistence, and catch-up serves the
    live view."""
    community = Community(backend=MemoryBackend())
    assert community.store.durable_backend is None  # nowhere to persist
    feed = _build(community)
    live = feed.subscribe("alice", "internal")
    feed.subscribe("late", "internal")
    feed.broadcast()
    live.require_ok()
    caught = feed.catch_up("late")
    caught.require_ok()
    assert caught.view == live.view


# -- push-path goldens ----------------------------------------------------

#: ``community.clock.snapshot()`` after one feed broadcast (two live
#: members on two tiers, one detached member) and one catch-up, as
#: recorded before the push path was merged into one core; ``card_cpu``
#: was re-pinned to ``FEED_CARD_CYCLES / cpu_hz`` when the card CPU
#: became an integer cycle ledger, and ``network`` dropped by two
#: epoch-record reads (0.005008 s each) when the broadcast stopped
#: reading the tier epoch over the DSP.  ``repr`` floats round-trip
#: exactly, so the comparison is bit-for-bit.
FEED_CLOCK = {
    "network": 0.090368,
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


def test_catch_up_frames_equal_the_live_lane_byte_for_byte(tmp_path, monkeypatch):
    """A catch-up handle receives exactly the frames a listener on the
    live tier lane heard in the last cycle."""
    community = Community(store_path=tmp_path / "community.db")
    feed = _two_document_feed(community)
    feed.subscribe("late", "internal", attach=False)
    heard = []
    feed._tier("internal").channel.subscribe(
        lambda kind, index, payload: heard.append((kind, index, payload))
    )
    feed.broadcast()
    replayed = []
    on_frame = SubscriberHandle.on_frame

    def record(handle, kind, index, payload):
        replayed.append((kind, index, payload))
        on_frame(handle, kind, index, payload)

    monkeypatch.setattr(SubscriberHandle, "on_frame", record)
    caught = feed.catch_up("late")
    caught.require_ok()
    assert [kind for kind, __, __ in heard].count("header") == 2
    assert replayed == heard
    community.close()
