"""Push sessions report the same card metrics a pull session does."""

from repro.community import Community, TierSpec

TIERS = [TierSpec("internal", allow=("/report",), drop=("secret",))]
VIEWERS = frozenset({"viewers"})
RULES = [("+", "viewers", "/tv"), ("-", "viewers", "//adult")]
SHOWS = "<tv>" + "".join(
    f"<show><title>t{i}</title><adult>x{i}</adult></show>" for i in range(10)
) + "</tv>"


def test_each_feed_document_counts_only_its_own_card_cycles():
    community = Community()
    owner = community.enroll("owner")
    alice = community.enroll("alice", strict_memory=False)
    feed = community.feed("intel", owner=owner, tiers=TIERS)
    feed.publish(
        "<report><summary>one</summary><body>a<secret>s</secret></body>"
        "</report>",
        doc_id="rpt",
    )
    feed.publish(
        "<report><summary>two</summary><body>b<secret>s2</secret></body>"
        "</report>",
        doc_id="rpt2",
    )
    handle = feed.subscribe("alice", "internal")
    feed.broadcast()
    handle.require_ok()
    first, second = handle.metrics_for("rpt"), handle.metrics_for("rpt2")
    soe = alice.card.soe
    assert 0 < first.card_cycles < soe.cycles_used
    assert 0 < second.card_cycles < soe.cycles_used
    assert first.card_cycles + second.card_cycles == soe.cycles_used
    # The RAM high-water stays the card's mark, as on pull.
    assert second.ram_high_water == soe.memory.high_water


def _channel_session():
    community = Community()
    owner = community.enroll("owner")
    viewer = community.enroll("viewer", strict_memory=False)
    doc = owner.publish(SHOWS, RULES, to=[viewer], doc_id="tv")
    return community, viewer, doc


def test_push_engine_counters_equal_a_pull_of_the_same_document():
    community, __, doc = _channel_session()
    channel = community.channel(doc)
    handle = channel.subscribe("viewer", groups=VIEWERS)
    channel.broadcast()
    handle.require_ok()
    pushed = handle.metrics

    __, viewer, doc = _channel_session()
    with viewer.open(doc, groups=VIEWERS) as session:
        stream = session.query()
        assert stream.text() == handle.view
        pulled = stream.metrics

    for name in ("events_pumped", "tokens_touched", "product_states_interned"):
        assert getattr(pushed, name) == getattr(pulled, name) > 0, name
    assert pushed.card_cycles == pulled.card_cycles
    assert pushed.bytes_decrypted == pulled.bytes_decrypted
