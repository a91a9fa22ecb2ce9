"""Push/carousel dissemination through community.channel(...)."""

import pytest

from repro.community import Community
from repro.core.nfa import compile_call_count
from repro.dissemination import container_frames
from repro.errors import (
    KeyNotGranted,
    PolicyError,
    ResourceExhausted,
    TamperDetected,
)
from repro.smartcard.resources import CostModel
from repro.terminal.transfer import TransferPolicy

TIER_RULES = [("+", "viewers", "/tv"), ("-", "viewers", "//adult")]
VIEWERS = frozenset({"viewers"})


def _card_cycles(community):
    return sum(member.card.soe.cycles_used for member in community.members)


def _broadcast_community(n_subscribers, cycles=1, transfer=None):
    community = Community()
    owner = community.enroll("owner")
    members = [
        community.enroll(f"sub{i}", strict_memory=False)
        for i in range(n_subscribers)
    ]
    body = "".join(
        f"<show><title>t{i}</title><adult>x{i}</adult></show>"
        for i in range(10)
    )
    doc = owner.publish(
        f"<tv>{body}</tv>", TIER_RULES, to=members, doc_id="tv"
    )
    channel = community.channel(doc)
    handles = [
        channel.subscribe(member, groups=VIEWERS, transfer=transfer)
        for member in members
    ]
    return community, channel, handles


def test_channel_is_cached_per_document():
    community, channel, __ = _broadcast_community(1)
    assert community.channel("tv") is channel
    assert community.channel(community.document("tv")) is channel


def test_broadcast_filters_per_card_and_charges_once():
    __, channel, handles = _broadcast_community(3)
    channel.broadcast()
    for handle in handles:
        assert handle.ok
        handle.require_ok()  # no exception
        assert "<title>" in handle.view
        assert "<adult>" not in handle.view
    # Broadcast bytes are audience-independent: sent exactly once.
    container = channel.document.container
    sent = channel.broadcast_channel.bytes_broadcast
    assert sent < 2 * container.stored_size


def test_ten_subscriber_broadcast_compiles_nothing_extra():
    """Acceptance: one shared evaluation pass -- a 10-subscriber
    broadcast adds ZERO compile_path calls over a 1-subscriber one."""
    __, channel_one, __ = _broadcast_community(1)
    before = compile_call_count()
    channel_one.broadcast()
    compiles_for_one = compile_call_count() - before

    __, channel_ten, handles = _broadcast_community(10)
    before = compile_call_count()
    channel_ten.broadcast()
    compiles_for_ten = compile_call_count() - before

    assert all(handle.ok for handle in handles)
    assert compiles_for_ten == compiles_for_one


def test_preview_matches_every_card_in_one_pass():
    __, channel, handles = _broadcast_community(5)
    before = compile_call_count()
    preview = channel.preview()
    channel.broadcast()
    assert compile_call_count() - before <= 2  # tier compiled once, shared
    for handle in handles:
        assert handle.view == preview[handle.member.name]


def test_carousel_cycles_and_late_joiner():
    community, channel, handles = _broadcast_community(1)
    latecomer = community.enroll("latecomer", strict_memory=False)
    channel.document.grant(latecomer)
    late = channel.subscribe(latecomer, groups=VIEWERS)
    channel.broadcast(cycles=2)
    assert channel.cycles_sent == 2
    assert late.ok
    assert late.view == handles[0].view


def test_late_joiner_closes_its_card_session():
    """Regression: a member tuning in mid-carousel must close its card
    session (END_DOCUMENT, final metrics) exactly like an on-time one.
    The late joiner used to drop the ``end`` frame once its document
    completed, so its card reported 13 APDUs and zero decrypted bytes,
    RAM high-water and card cycles."""
    community, channel, handles = _broadcast_community(1)
    channel.broadcast()  # cycle 1, before the latecomer tunes in
    latecomer = community.enroll("latecomer", strict_memory=False)
    channel.document.grant(latecomer)
    late = channel.subscribe(latecomer, groups=VIEWERS)
    # The latecomer tunes in during the last two chunks of a cycle.
    tail = container_frames(channel.document.container)[-3:]
    channel.broadcast_channel.send(tail)
    channel.broadcast()
    assert late.frames_missed == 3
    late.require_ok()
    assert late.view == handles[0].view
    on_time, joined = handles[0].metrics, late.metrics
    assert joined.apdu_count == on_time.apdu_count == 14
    assert joined.bytes_decrypted == on_time.bytes_decrypted == 303
    assert joined.ram_high_water == on_time.ram_high_water == 116
    assert joined.card_cycles == on_time.card_cycles == 60992


def test_revocation_is_soft_for_already_subscribed_members():
    """The channel's revocation contract: ``document.revoke`` removes
    the wrapped key at the DSP but not the copy a subscribed card
    already holds, so that member keeps receiving full views; a member
    revoked before subscribing cannot unlock the document."""
    community, channel, handles = _broadcast_community(2)
    kept = handles[0]
    unsubscribed = community.enroll("unsubscribed", strict_memory=False)
    channel.document.grant(unsubscribed)
    assert channel.document.revoke(kept.member)
    assert channel.document.revoke(unsubscribed)
    channel.broadcast()
    assert kept.ok
    assert kept.view == handles[1].view
    assert len(kept.view) == 309
    with pytest.raises(KeyNotGranted):
        channel.subscribe(unsubscribed, groups=VIEWERS)


#: ``community.clock.snapshot()`` after a 2-cycle broadcast to three
#: on-time subscribers, as recorded before the push path was merged
#: into one core; ``card_cpu`` was re-pinned to ``CHANNEL_CARD_CYCLES /
#: cpu_hz`` when the card CPU became an integer cycle ledger.  ``repr``
#: floats round-trip exactly, so the comparison is bit-for-bit.
CHANNEL_CLOCK = {
    "network": 0.015071999999999999,
    "link": 0.07791796875000001,
    "eeprom": 0.00234,
    "broadcast": 0.0015106201171875,
    "link:sub0": 0.48844921875,
    "link:sub1": 0.48844921875,
    "link:sub2": 0.48844921875,
    "card_cpu": 0.005544727272727272,
}
#: The card cycles behind ``CHANNEL_CLOCK["card_cpu"]``, summed over
#: every member's card.
CHANNEL_CARD_CYCLES = 182976


def test_two_cycle_broadcast_clock_golden():
    community, channel, handles = _broadcast_community(3)
    channel.broadcast(cycles=2)
    assert all(handle.ok for handle in handles)
    assert community.clock.snapshot() == CHANNEL_CLOCK
    assert _card_cycles(community) == CHANNEL_CARD_CYCLES
    assert CHANNEL_CLOCK["card_cpu"] == CHANNEL_CARD_CYCLES / CostModel().cpu_hz


def test_batched_subscriber_transport_is_view_identical():
    __, seq_channel, sequential = _broadcast_community(1)
    __, batch_channel, batched = _broadcast_community(
        1, transfer=TransferPolicy(window=4, apdu_batch=4)
    )
    seq_channel.broadcast()
    batch_channel.broadcast()
    assert batched[0].ok and sequential[0].ok
    assert batched[0].view == sequential[0].view
    assert batched[0].metrics.apdu_count < sequential[0].metrics.apdu_count


def test_subscribing_the_same_member_twice_is_refused():
    community, channel, __ = _broadcast_community(1)
    with pytest.raises(PolicyError, match="already subscribed"):
        channel.subscribe(community.member("sub0"), groups=VIEWERS)


def test_exhausted_subscriber_card_raises_resource_exhausted():
    community = Community()
    owner = community.enroll("owner")
    # A quota even the compiled automata cannot fit into: the card
    # reports MEMORY_FAILURE (0x6581) on the first chunk.
    tiny = community.enroll("tiny", ram_quota=16, strict_memory=True)
    body = "".join(f"<show><title>t{i}</title></show>" for i in range(12))
    doc = owner.publish(
        f"<tv>{body}</tv>", [("+", "tiny", "//show/title")], to=[tiny],
        doc_id="tv",
    )
    channel = community.channel(doc)
    handle = channel.subscribe(tiny)
    channel.broadcast()
    assert not handle.ok
    with pytest.raises(ResourceExhausted):
        handle.require_ok()


def test_tampered_broadcast_raises_typed_error():
    __, channel, handles = _broadcast_community(1)

    def corrupt(kind, index, payload):
        if kind == "chunk" and index == 2:
            return bytes([payload[0] ^ 0xFF]) + payload[1:]
        return payload

    channel.set_tamper(corrupt)
    channel.broadcast()
    handle = handles[0]
    assert not handle.ok
    with pytest.raises(TamperDetected, match="0x6982"):
        handle.require_ok()
