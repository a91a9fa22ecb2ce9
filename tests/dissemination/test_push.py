"""Integration tests for the push (selective dissemination) scenario."""

from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.dissemination.channel import BroadcastChannel, container_frames
from repro.dissemination.subscriber import Subscriber
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.card import SmartCard
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules, subscription_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

SECRET = b"push-test-secret"


def _broadcast_setup(
    rules_by_subscriber, doc_root, doc_id="stream", transfer=None
):
    """Seal the document once, build one card per subscriber."""
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(
        list(tree_to_events(doc_root)), IndexMode.RECURSIVE
    )
    container = seal_document(plaintext, doc_id, 1, keys, chunk_size=96)
    channel = BroadcastChannel()
    subscribers = []
    for name, rules in rules_by_subscriber.items():
        soe = SecureOperatingEnvironment(strict_memory=False)
        soe.provision_key(doc_id, SECRET)
        card = SmartCard(soe)
        records = [
            seal_blob(
                f"{rule.sign}|{rule.subject}|{rule.object}".encode(),
                f"{doc_id}#rule:{index}",
                1,
                keys,
            )
            for index, rule in enumerate(rules)
        ]
        subscriber = Subscriber(
            name, card, 1, records, clock=channel.clock, transfer=transfer
        )
        channel.subscribe(subscriber.on_frame)
        subscribers.append(subscriber)
    return channel, container, subscribers


def test_subscribers_get_personal_views():
    doc = video_catalog(20)
    policies = {
        "newsie": subscription_rules("newsie", ["news"]),
        "sporty": subscription_rules("sporty", ["news", "sports"]),
        "kid": parental_rules("kid", "PG"),
    }
    channel, container, subscribers = _broadcast_setup(policies, doc)
    channel.send(container_frames(container))
    for subscriber in subscribers:
        assert subscriber.ok, subscriber.state.failed
        expected = write_string(
            reference_view(doc, policies[subscriber.name], subscriber.name)
        )
        assert subscriber.view == expected


def test_broadcast_cost_is_shared_but_filtering_is_personal():
    doc = video_catalog(20)
    policies = {
        "narrow": subscription_rules("narrow", ["news"]),
        "wide": subscription_rules(
            "wide", ["news", "sports", "cartoons", "documentary", "movies"]
        ),
    }
    channel, container, subscribers = _broadcast_setup(policies, doc)
    channel.send(container_frames(container))
    narrow, wide = subscribers
    # Narrow subscription -> most chunks dropped before the card link.
    assert narrow.metrics.chunks_skipped > 0
    assert narrow.metrics.chunks_sent < wide.metrics.chunks_sent
    assert narrow.metrics.bytes_decrypted < wide.metrics.bytes_decrypted
    # The broadcast itself was sent exactly once.
    assert channel.frames_broadcast == len(container.chunks) + 2


def test_tampered_frame_detected_by_all_subscribers():
    doc = video_catalog(5)
    policies = {"kid": parental_rules("kid", "PG")}
    channel, container, subscribers = _broadcast_setup(policies, doc)

    def corrupt(kind, index, payload):
        if kind == "chunk" and index == 1:
            flipped = bytearray(payload)
            flipped[0] ^= 1
            return bytes(flipped)
        return payload

    channel.set_tamper(corrupt)
    channel.send(container_frames(container))
    (subscriber,) = subscribers
    assert not subscriber.ok
    assert "0x6982" in subscriber.state.failed  # security status word


def test_subscriber_without_rules_receives_nothing():
    doc = video_catalog(5)
    policies = {"stranger": RuleSet([
        AccessRule.parse("+", "someone-else", "/stream", rule_id="Z0")
    ])}
    channel, container, subscribers = _broadcast_setup(policies, doc)
    channel.send(container_frames(container))
    (subscriber,) = subscribers
    assert subscriber.ok
    assert subscriber.view == ""


def test_batched_subscribers_see_identical_views():
    """PUT_CHUNK_BATCH on the broadcast link changes costs, not views."""
    from repro.terminal.transfer import TransferPolicy

    doc = video_catalog(20)
    policies = {
        "newsie": subscription_rules("newsie", ["news"]),
        "sporty": subscription_rules("sporty", ["news", "sports"]),
        "kid": parental_rules("kid", "PG"),
    }
    channel, container, plain = _broadcast_setup(policies, doc)
    channel.send(container_frames(container))
    for batch in (2, 4, 8):
        channel, container, batched = _broadcast_setup(
            policies, doc, transfer=TransferPolicy.windowed(batch)
        )
        channel.send(container_frames(container))
        for seq, win in zip(plain, batched):
            assert win.ok, win.state.failed
            assert win.view == seq.view, (win.name, batch)
            assert win.metrics.bytes_decrypted == seq.metrics.bytes_decrypted
            # Speculative frames only move between the skipped (dropped
            # at the terminal) and wasted (dropped on-card) buckets.
            assert (
                win.metrics.chunks_skipped + win.metrics.chunks_wasted
                == seq.metrics.chunks_skipped
            ), (win.name, batch)
        # Narrow (skip-heavy) subscribers may individually pay for the
        # speculation; across the fleet batching must win round trips.
        assert sum(w.metrics.apdu_count for w in batched) < sum(
            s.metrics.apdu_count for s in plain
        )
