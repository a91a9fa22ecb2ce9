"""Tests for carousel cycles and late joining on the shared push core."""

from repro.community import Community
from repro.core import reference_view
from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.dissemination import BroadcastChannel, Subscriber, container_frames
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.card import SmartCard
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import subscription_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

SECRET = b"carousel-secret!"


def _sealed_stream():
    keys = DocumentKeys(SECRET)
    doc = video_catalog(12)
    plaintext = encode_document(list(tree_to_events(doc)), IndexMode.RECURSIVE)
    container = seal_document(plaintext, "tv", 1, keys, chunk_size=96)
    rules = subscription_rules("sub", ["news", "sports"])
    records = [
        seal_blob(
            f"{r.sign}|{r.subject}|{r.object}".encode(), f"tv#rule:{i}", 1, keys
        )
        for i, r in enumerate(rules)
    ]
    expected = write_string(reference_view(doc, rules, "sub"))
    return container, records, expected


def _published_stream():
    """The same stream published through the community facade."""
    community = Community()
    owner = community.enroll("owner")
    sub = community.enroll("sub", strict_memory=False)
    doc = video_catalog(12)
    rules = subscription_rules("sub", ["news", "sports"])
    document = owner.publish(
        list(tree_to_events(doc)), rules, to=[sub], doc_id="tv", chunk_size=96
    )
    expected = write_string(reference_view(doc, rules, "sub"))
    return community.channel(document), sub, expected


def test_punctual_subscriber_completes_on_first_cycle():
    container, records, expected = _sealed_stream()
    channel = BroadcastChannel()
    soe = SecureOperatingEnvironment(strict_memory=False)
    soe.provision_key("tv", SECRET)
    subscriber = Subscriber("sub", SmartCard(soe), 1, records, clock=channel.clock)
    channel.subscribe(subscriber.on_frame)
    frames = container_frames(container)
    for __ in range(2):
        channel.send(frames)
    assert channel.frames_broadcast == 2 * len(frames)
    assert subscriber.ok
    assert subscriber.view == expected  # second cycle did not duplicate


def test_late_joiner_recovers_on_next_cycle():
    channel, sub, expected = _published_stream()
    # First cycle starts with nobody listening; the subscriber tunes in
    # "mid-air" -- simulate by broadcasting one full cycle, then
    # subscribing a late joiner, then running the next cycle.
    channel.broadcast()
    late = channel.subscribe(sub)
    channel.broadcast()
    assert late.ok
    assert late.view == expected


def test_mid_cycle_joiner_skips_partial_frames():
    channel, sub, expected = _published_stream()
    late = channel.subscribe(sub)
    chunks = channel.document.container.chunks

    # The partial tail of a cycle (no header), then a full cycle.
    channel.broadcast_channel.send(
        [("chunk", 7, chunks[7]), ("chunk", 8, chunks[8]), ("end", 0, b"")]
    )
    assert late.frames_missed == 3
    assert late.views == {}  # not joined yet

    channel.broadcast()
    assert list(late.views) == ["tv"] and late.ok
    assert late.view == expected


def test_carousel_cycles_are_byte_deterministic():
    """Every cycle of one container version emits the identical frame
    sequence -- the property feed catch-up snapshots rely on: replaying
    a recorded cycle is indistinguishable from listening live."""
    container, __, __ = _sealed_stream()
    channel = BroadcastChannel()
    frames = []
    channel.subscribe(lambda kind, index, blob: frames.append((kind, index, blob)))
    for __ in range(2):
        channel.send(container_frames(container))
    assert len(frames) % 2 == 0
    half = len(frames) // 2
    assert frames[:half] == frames[half:]
    assert frames[0][0] == "header" and frames[half - 1][0] == "end"


def test_carousel_same_version_not_replay():
    """Repeated cycles of one version pass the card's version register."""
    channel, sub, expected = _published_stream()
    handle = channel.subscribe(sub)
    channel.broadcast(cycles=3)
    assert channel.cycles_sent == 3
    assert handle.ok
    assert handle.view == expected
    assert sub.card.soe.version_register("tv") == 1
