"""Differential: facade scenarios vs the hand-wired stack's results.

Running the quickstart scenarios on :mod:`repro.community` must
produce byte-identical authorized views AND bit-identical ``SimClock``
component totals versus what the hand-wired publisher/terminal stack
produced; that stack is gone, so its results are pinned as literals.
"""

import warnings

from repro.community import Community
from repro.core.rules import AccessRule, RuleSet
from repro.smartcard.resources import CostModel
from repro.terminal.transfer import TransferPolicy

DOCUMENT = (
    "<hospital>"
    "<patient><name>Smith</name><diagnosis>flu</diagnosis>"
    "<billing><amount>120</amount></billing></patient>"
    "<patient><name>Jones</name><diagnosis>ok</diagnosis>"
    "<billing><amount>80</amount></billing></patient>"
    "</hospital>"
)

RULES = [
    ("+", "doctor", "/hospital"),
    ("-", "doctor", "//billing"),
    ("+", "accountant", "//billing"),
    ("+", "accountant", "//patient/name"),
]


def _ruleset():
    return RuleSet([AccessRule.parse(s, u, p) for s, u, p in RULES])


#: The quickstart scenario's views and ``SimClock`` component totals as
#: the hand-wired publisher/terminal stack produced them, before that
#: stack was removed; ``card_cpu`` was re-pinned to ``LEGACY_CARD_CYCLES
#: / cpu_hz`` when the card CPU became an integer cycle ledger.  ``repr``
#: floats round-trip exactly, so the clock comparison stays bit-for-bit.
LEGACY_VIEWS = {
    "doctor": (
        "<hospital><patient><name>Smith</name><diagnosis>flu</diagnosis>"
        "</patient><patient><name>Jones</name><diagnosis>ok</diagnosis>"
        "</patient></hospital>"
    ),
    "accountant": (
        "<hospital><patient><name>Smith</name><billing><amount>120</amount>"
        "</billing></patient><patient><name>Jones</name><billing>"
        "<amount>80</amount></billing></patient></hospital>"
    ),
    "doctor//diagnosis": (
        "<hospital><patient><diagnosis>flu</diagnosis></patient><patient>"
        "<diagnosis>ok</diagnosis></patient></hospital>"
    ),
    "doctor windowed": (
        "<hospital><patient><name>Smith</name><diagnosis>flu</diagnosis>"
        "</patient><patient><name>Jones</name><diagnosis>ok</diagnosis>"
        "</patient></hospital>"
    ),
}
LEGACY_CLOCK = {
    "network": 0.08646,
    "link": 1.39322265625,
    "eeprom": 0.0018599999999999999,
    "card_cpu": 0.005066878787878788,
}
#: The card cycles behind ``LEGACY_CLOCK["card_cpu"]``, summed over
#: every member's card.
LEGACY_CARD_CYCLES = 167207


def _run_facade():
    """The same scenario through repro.community."""
    community = Community()
    owner = community.enroll("owner")
    doctor = community.enroll("doctor")
    accountant = community.enroll("accountant")
    doc = owner.publish(
        DOCUMENT, _ruleset(), to=[doctor, accountant], doc_id="records"
    )
    views = {}
    for member in (doctor, accountant):
        with member.open(doc) as session:
            views[member.name] = session.query().text()
    with doctor.open(doc) as session:
        views["doctor//diagnosis"] = session.query("//diagnosis").text()
    with doctor.open(doc, transfer=TransferPolicy.windowed(8)) as session:
        views["doctor windowed"] = session.query().text()
    cycles = sum(member.card.soe.cycles_used for member in community.members)
    return views, community.clock.snapshot(), cycles


def test_views_byte_identical_and_clock_bit_identical():
    facade_views, facade_clock, facade_cycles = _run_facade()
    assert facade_views == LEGACY_VIEWS
    # Bit-for-bit: the facade performs exactly the operations of the
    # hand-wired stack, so every simulated-clock component matches to
    # the last float bit.
    assert facade_clock == LEGACY_CLOCK
    assert facade_cycles == LEGACY_CARD_CYCLES
    assert LEGACY_CLOCK["card_cpu"] == LEGACY_CARD_CYCLES / CostModel().cpu_hz


def test_facade_itself_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        community = Community()
        owner = community.enroll("owner")
        reader = community.enroll("reader")
        doc = owner.publish(
            "<r><a>x</a></r>", [("+", "reader", "/r")], to=[reader]
        )
        with reader.open(doc) as session:
            assert session.query().text() == "<r><a>x</a></r>"
