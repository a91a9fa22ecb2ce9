"""Failure injection: resource exhaustion and protocol abuse.

The card must degrade into clean ISO status words -- never a Python
exception escaping the card boundary, never a partial state that a
following session could observe.
"""

import pytest

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.smartcard.apdu import CommandAPDU, Instruction, StatusWord
from repro.smartcard.card import SmartCard
from repro.terminal.proxy import ProxyError

RULES = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="FI")])
DOC = "<r>" + "<x>" * 30 + "deep" + "</x>" * 30 + "</r>"


def _reader(ram_quota):
    """The reader ``u`` with a card of ``ram_quota`` bytes, ``d`` unlocked."""
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("u", ram_quota=ram_quota, strict_memory=True)
    owner.publish(DOC, RULES, to=[reader], doc_id="d", chunk_size=48)
    reader.unlock("d", "owner")
    return reader


def test_tiny_ram_card_fails_with_memory_status():
    """A 128-byte card cannot evaluate a depth-31 document."""
    reader = _reader(128)
    with pytest.raises(ProxyError) as info:
        reader.proxy.query("d", "u")
    assert info.value.status == StatusWord.MEMORY_FAILURE


def test_adequate_ram_card_succeeds_on_same_document():
    outcome = _reader(2048).proxy.query("d", "u")
    assert "deep" in outcome.xml
    assert outcome.metrics.ram_high_water <= 2048


def test_memory_failure_does_not_poison_next_session():
    """After an overflow, a new session on the same card still works."""
    proxy = _reader(100_000).proxy
    first = proxy.query("d", "u")
    assert "deep" in first.xml
    second = proxy.query("d", "u")
    assert second.xml == first.xml


@pytest.mark.parametrize("instruction", [
    Instruction.BEGIN_SESSION,
    Instruction.PUT_HEADER,
    Instruction.PUT_RULES,
    Instruction.PUT_CHUNK,
    Instruction.GET_OUTPUT,
    Instruction.END_DOCUMENT,
    Instruction.BEGIN_REFETCH,
    Instruction.PUT_REFETCH_CHUNK,
    Instruction.ADMIN_PROVISION_KEY,
    Instruction.SC_ADMIN,
    Instruction.GET_STATUS,
])
def test_garbage_payloads_yield_status_words(instruction):
    """Fuzzing every instruction with junk must never raise."""
    card = SmartCard()
    card.process(CommandAPDU(Instruction.SELECT, data=b"aid"))
    for junk in (b"", b"\x00", b"\xff" * 40, b"A" * 255):
        response = card.process(CommandAPDU(instruction, data=junk))
        assert isinstance(response.sw, int)


def test_out_of_order_protocol_yields_clean_errors():
    card = SmartCard()
    card.process(CommandAPDU(Instruction.SELECT, data=b"aid"))
    # Chunk before header, end before begin, refetch before anything.
    assert card.process(
        CommandAPDU(Instruction.PUT_CHUNK, data=b"x" * 50)
    ).sw == StatusWord.CONDITIONS_NOT_SATISFIED
    assert not card.process(CommandAPDU(Instruction.END_DOCUMENT)).ok
    assert not card.process(
        CommandAPDU(Instruction.BEGIN_REFETCH)
    ).ok
