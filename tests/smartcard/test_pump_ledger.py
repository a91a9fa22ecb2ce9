"""The applet's pump charges the card CPU exactly, chunk by chunk.

The pump settles its bookkeeping once per chunk on an integer cycle
ledger, so these tests pin what must not move: a strict-RAM fault in
the middle of a chunk charges the items before the fault once (their
output and engine work, no decode charge), the same cycles a per-item
pump charged; and a session's modeled card time is its cycle count
divided by the clock rate, converted once.
"""

import pytest

from repro.community import Community
from repro.crypto.container import seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.applet import CardApplet
from repro.smartcard.memory import CardMemoryError
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.xmlstream.parser import parse_string

SECRET = b"pump-ledger-secret"


def _mail(messages: int = 6) -> str:
    """Bodies guarded by a later ``flag``: pending, buffered in RAM."""
    parts = ["<mail>"]
    for index in range(messages):
        flag = "keep" if index % 2 == 0 else "drop"
        parts.append(
            f"<msg><body>{'x' * 40}{index}</body><flag>{flag}</flag></msg>"
        )
    parts.append("</mail>")
    return "".join(parts)


def _nest(depth: int = 30) -> str:
    """A deep spine: every open grows the decoder and engine stacks."""
    opens = "".join(f"<n{i % 3}><t>v{i}</t>" for i in range(depth))
    closes = "".join(f"</n{(depth - 1 - i) % 3}>" for i in range(depth))
    return opens + closes


MAIL_RULES = [("+", "u", '//msg[flag = "keep"]/body'), ("+", "u", "//flag")]
NEST_RULES = [("+", "u", "/n0"), ("-", "u", "//t")]

#: (document, rules, query, RAM quota, faulting chunk, the fault's
#: ``CardMemoryError`` as (requested, used, quota), the meter's
#: high-water mark at the fault, card cycles at the fault, output bytes
#: at the fault), pinned from the per-item pump.  The faults land in
#: every pool a session charges per item: the decision-sign allocation
#: after the engine counted the open (mail), the decoder stack
#: (nest/300), the engine frame (nest/360), a buffered pending hole
#: (mail/360), and the query lane's engine frame and decision sign
#: (mail under ``//msg``).  The high-water mark can exceed the use at
#: the fault: the query-engine fault comes after a closed element
#: returned its frames.
FAULTS = {
    "mail-signs": (_mail(), MAIL_RULES, None, 340, 3, (4, 337, 340), 337, 48210, 0),
    "mail-pending": (_mail(), MAIL_RULES, None, 360, 3, (7, 355, 360), 355, 48670, 0),
    "mail-query-engine": (
        _mail(), MAIL_RULES, "//msg", 295, 1, (14, 283, 295), 291, 27885, 0
    ),
    "mail-query-signs": (
        _mail(), MAIL_RULES, "//msg", 355, 2, (4, 355, 355), 355, 39510, 0
    ),
    "nest-decoder": (_nest(), NEST_RULES, None, 300, 2, (8, 298, 300), 298, 36260, 40),
    "nest-engine": (_nest(), NEST_RULES, None, 360, 3, (14, 358, 360), 358, 46004, 48),
}


def _session(document: str, rules, quota: int, query: str | None = None):
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(parse_string(document), IndexMode.RECURSIVE)
    container = seal_document(plaintext, "d", 1, keys, chunk_size=64)
    soe = SecureOperatingEnvironment(ram_quota=quota, strict_memory=True)
    soe.provision_key("d", SECRET)
    applet = CardApplet(soe)
    applet.begin_session("d", "u", query=query)
    applet.put_header(container.header)
    for index, (sign, subject, path) in enumerate(rules):
        record = seal_blob(
            f"{sign}|{subject}|{path}".encode(), f"d#rule:{index}", 1, keys
        )
        applet.put_rule_record(index, 1, record)
    return soe, applet, container


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_strict_ram_fault_mid_chunk_charges_finished_items_once(name):
    (
        document, rules, query, quota, chunk, error, high_water, cycles, output
    ) = FAULTS[name]
    soe, applet, container = _session(document, rules, quota, query)
    with pytest.raises(CardMemoryError) as fault:
        for index, blob in enumerate(container.chunks):
            before = soe.cycles_used
            applet.put_chunk(index, blob)
    assert index == chunk
    assert (
        fault.value.requested, fault.value.used, fault.value.quota
    ) == error
    assert soe.memory.high_water == high_water
    # The items the faulting chunk finished were charged: more than
    # the chunk's MAC and decryption alone ...
    cost = soe.cost
    unpacked = (
        len(blob) * cost.cycles_mac_per_byte
        + (len(blob) - container.header.tag_length) * cost.cycles_decrypt_per_byte
    )
    assert soe.cycles_used > before + unpacked
    # ... and exactly once, as the per-item pump charged them.
    assert soe.cycles_used == cycles
    assert applet.output_bytes_total == output
    assert soe.clock.component("card_cpu") == pytest.approx(
        cycles / cost.cpu_hz, rel=1e-12
    )


def test_pull_session_card_cpu_is_its_cycles_over_the_clock_rate():
    """The session clock's card time is its cycle count converted once."""
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader")
    body = "".join(
        f"<item><title>t{i}</title><note>{'n' * 30}{i}</note></item>"
        for i in range(12)
    )
    doc = owner.publish(
        f"<list>{body}</list>",
        [("+", "reader", "/list"), ("-", "reader", "//note")],
        to=[reader],
        doc_id="list",
        chunk_size=48,
    )
    for query in (None, "//title"):
        with reader.open(doc) as session:
            metrics = session.query(query).metrics
        assert type(metrics.card_cycles) is int
        assert metrics.card_cycles > 0
        hz = reader.card.soe.cost.cpu_hz
        assert metrics.clock.component("card_cpu") == metrics.card_cycles / hz
