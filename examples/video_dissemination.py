"""Demo application 2: selective dissemination of multimedia streams.

"the second one deals with the selective dissemination of multimedia
streams through unsecured channels" (Section 3).  One encrypted stream
is broadcast through ``community.channel(...)``; each subscriber's card
filters it against the subscriber's own rights -- subscription tiers
for adults, parental control for the kid.  Nobody without a card learns
anything, and the broadcaster sends every byte exactly once.

The head-end also *preflights* the whole audience in one shared
evaluation pass (``channel.preview()``) -- the views the cards will
produce, for the price of one parse.

Run with::

    python examples/video_dissemination.py
"""

from repro.community import Community
from repro.core.rules import AccessRule
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules, subscription_rules
from repro.xmlstream.tree import tree_to_events


def main() -> None:
    community = Community()
    head_end = community.enroll("head-end")

    policies = {
        "news-only": subscription_rules("news-only", ["news"]),
        "full-tier": subscription_rules(
            "full-tier",
            ["news", "sports", "cartoons", "documentary", "movies"],
        ),
        "kid": parental_rules("kid", max_rating="PG"),
    }
    subscribers = [
        community.enroll(name, strict_memory=False) for name in policies
    ]
    # One policy serves the whole audience; tier generators reuse rule
    # ids, so namespace them per subscriber before merging.
    all_rules = [
        AccessRule(rule.sign, rule.subject, rule.object,
                   f"{name}:{rule.rule_id}")
        for name, rules in policies.items()
        for rule in rules
    ]

    stream_doc = video_catalog(n_videos=25, payload=150)
    tv = head_end.publish(
        tree_to_events(stream_doc),
        all_rules,
        to=subscribers,
        doc_id="tv",
        chunk_size=96,
    )
    container = tv.container
    print(f"broadcast stream: {container.stored_size} encrypted bytes in "
          f"{container.header.chunk_count} chunks")
    print()

    channel = community.channel(tv)
    handles = [channel.subscribe(member) for member in subscribers]

    preview = channel.preview()  # every view, ONE evaluation pass
    channel.broadcast()
    print(f"channel carried {channel.broadcast_channel.bytes_broadcast} "
          f"bytes, once, for {len(handles)} subscribers\n")

    header = f"{'subscriber':10s} {'ok':3s} {'view B':>7s} {'chunks sent':>11s} " \
             f"{'dropped':>8s} {'decrypted B':>11s} {'card time':>9s}"
    print(header)
    print("-" * len(header))
    for handle in handles:
        metrics = handle.metrics
        card_time = handle.member.card.soe.clock.component("card_cpu")
        print(f"{handle.member.name:10s} {str(handle.ok):3s} "
              f"{len(handle.view):7d} {metrics.chunks_sent:11d} "
              f"{metrics.chunks_skipped:8d} {metrics.bytes_decrypted:11d} "
              f"{card_time:8.3f}s")
    print()
    print("head-end preview matched every card view:",
          all(handle.view == preview[handle.member.name]
              for handle in handles))
    kid_view = next(h for h in handles if h.member.name == "kid").view
    print("parental check: 'R'-rated titles in kid's view:",
          "<rating>R</rating>" in kid_view)
    print("kid sees PG and G programs:",
          "<rating>G</rating>" in kid_view and "<rating>PG</rating>" in kid_view)


if __name__ == "__main__":
    main()
