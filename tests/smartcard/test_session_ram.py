"""A card returns every session's secure-RAM charges when it ends.

The applet charges the compiled automata, the decoder stack, the
engine's frames and tokens, the decision nodes and the pending buffers
to the card's meter.  None of it may outlive its session: on a default
(strict, 1 KB) card, the same pull repeated must keep working and keep
reporting the same high-water mark.
"""

from repro.community import Community, TierSpec
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules
from repro.xmlstream.tree import tree_to_events


def test_repeated_pulls_on_a_strict_card_keep_their_high_water():
    community = Community()
    owner = community.enroll("owner")
    kid = community.enroll("kid")  # default card: strict 1 KB
    memory = kid.card.soe.memory
    assert memory.strict and memory.quota == 1024
    doc = owner.publish(
        list(tree_to_events(video_catalog(4))),
        parental_rules("kid"),
        to=[kid],
        doc_id="videos",
    )
    idle = memory.breakdown()
    marks = []
    views = set()
    for __ in range(12):
        with kid.open(doc) as session:
            stream = session.query()
            views.add(stream.text())
        marks.append(stream.metrics.ram_high_water)
        assert memory.breakdown() == idle
    assert len(views) == 1
    assert marks == [marks[0]] * 12


def test_a_push_subscriber_card_releases_each_feed_document():
    community = Community()
    owner = community.enroll("owner")
    viewer = community.enroll("viewer")  # default card: strict 1 KB
    memory = viewer.card.soe.memory
    feed = community.feed(
        "kids",
        owner=owner,
        tiers=[TierSpec("family", allow=("/stream",), drop=("payload",))],
    )
    doc_ids = [f"catalog-{index}" for index in range(6)]
    for doc_id in doc_ids:
        feed.publish(list(tree_to_events(video_catalog(4))), doc_id=doc_id)
    idle = memory.breakdown()
    handle = feed.subscribe("viewer", "family")
    feed.broadcast()
    handle.require_ok()
    assert memory.breakdown() == idle
    marks = [handle.metrics_for(doc_id).ram_high_water for doc_id in doc_ids]
    assert marks == [marks[0]] * len(doc_ids)
