"""The shared freshness rule (view cache, reactor)."""

from repro.community import Community
from repro.dsp.freshness import UNSTAMPED, Freshness


def test_equal_stamps_are_fresh_without_reading_versions():
    held = Freshness(4, "boot-a", ((1, 1),))
    assert held.revalidate(Freshness(4, "boot-a", ((1, 1),))) is held
    # The stamp path holds even when the versions differ.
    assert held.revalidate(Freshness(4, "boot-a", ((2, 7),))) is held


def test_stamp_mismatch_with_equal_versions_re_stamps():
    held = Freshness(4, "boot-a", ((1, 1), (2, 3)))
    current = Freshness(9, "boot-b", ((1, 1), (2, 3)))
    assert held.revalidate(current) is current


def test_stamp_mismatch_with_moved_versions_is_stale():
    held = Freshness(4, "boot-a", ((1, 1),))
    assert held.revalidate(Freshness(5, "boot-a", ((1, 2),))) is None
    assert held.revalidate(Freshness(5, "boot-a")) is None


def test_unstamped_and_cross_boot_stamps_never_match():
    assert not UNSTAMPED.same_stamp(UNSTAMPED)
    assert not Freshness(3, "boot-a").same_stamp(Freshness(3, "boot-b"))
    assert Freshness(3, "boot-a").same_stamp(Freshness(3, "boot-a", ((1, 1),)))


def test_store_stamp_and_versions_follow_mutations():
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader")
    doc = owner.publish("<r/>", [("+", "reader", "/r")], to=[reader])
    store = community.store
    before = store.stamp
    assert before == Freshness(store.generation, store.boot)
    record = store.get(doc.doc_id)
    assert (record.container.header.version, record.rules_version) == (1, 1)
    doc.update_rules([("-", "reader", "/r")])
    assert not before.same_stamp(store.stamp)
    record = store.get(doc.doc_id)
    assert (record.container.header.version, record.rules_version) == (1, 2)
    # A removal that removes nothing leaves the stamp alone.
    stamp = store.stamp
    store.remove_wrapped_key(doc.doc_id, "nobody")
    assert store.stamp.same_stamp(stamp)
