"""E7 -- push dissemination: per-subscriber cost under one broadcast.

The broadcast is sent once regardless of audience; each subscriber's
terminal drops the chunks its card has skipped past, so narrow
subscriptions should show proportionally lower card-link and
decryption cost -- that margin is what makes "real time" feasible on a
2 KB/s card link.
"""

from _common import emit

from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.dissemination.channel import BroadcastChannel, container_frames
from repro.dissemination.subscriber import Subscriber
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.card import SmartCard
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.workloads.docgen import video_catalog, _CATEGORIES
from repro.workloads.rulegen import parental_rules, subscription_rules
from repro.xmlstream.tree import tree_to_events

SECRET = b"bench-e7-secret!"


def _run_broadcast(n_videos=40):
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(
        list(tree_to_events(video_catalog(n_videos))), IndexMode.RECURSIVE
    )
    container = seal_document(plaintext, "tv", 1, keys, chunk_size=96)
    channel = BroadcastChannel()
    policies = {
        "tier-1": subscription_rules("tier-1", _CATEGORIES[:1]),
        "tier-3": subscription_rules("tier-3", _CATEGORIES[:3]),
        "tier-5": subscription_rules("tier-5", _CATEGORIES),
        "parental": parental_rules("parental", "PG"),
    }
    subscribers = []
    for name, rules in policies.items():
        soe = SecureOperatingEnvironment(strict_memory=False)
        soe.provision_key("tv", SECRET)
        records = [
            seal_blob(
                f"{r.sign}|{r.subject}|{r.object}".encode(),
                f"tv#rule:{i}", 1, keys,
            )
            for i, r in enumerate(rules)
        ]
        subscriber = Subscriber(name, SmartCard(soe), 1, records,
                                clock=channel.clock)
        channel.subscribe(subscriber.on_frame)
        subscribers.append(subscriber)
    channel.send(container_frames(container))
    return channel, subscribers


def run_experiment():
    channel, subscribers = _run_broadcast()
    headers = [
        "subscriber", "chunks to card", "chunks dropped", "decrypted B",
        "card link s", "card cpu s", "view B",
    ]
    rows = []
    for subscriber in subscribers:
        assert subscriber.ok, subscriber.state.failed
        metrics = subscriber.metrics
        rows.append([
            subscriber.name,
            metrics.chunks_sent,
            metrics.chunks_skipped,
            metrics.bytes_decrypted,
            channel.clock.component(f"link:{subscriber.name}"),
            subscriber.card.soe.clock.component("card_cpu"),
            len(subscriber.view),
        ])
    rows.append([
        "(broadcast once)", channel.frames_broadcast, 0,
        channel.bytes_broadcast, channel.clock.component("broadcast"), 0.0, 0,
    ])
    return "E7: push dissemination, one broadcast / many cards", headers, rows


def test_e7_dissemination(benchmark):
    benchmark.pedantic(lambda: _run_broadcast(20), rounds=3, iterations=1)
    emit(*run_experiment())


if __name__ == "__main__":
    emit(*run_experiment())
