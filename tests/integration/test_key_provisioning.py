"""The pinned soft spot of key provisioning: secrets cross the terminal.

The paper puts the card in charge of decrypting the document and of
evaluating the policy (Section 2.1).  Today the terminal unwraps each
document secret itself -- the member's PKI wrap on a pull, the tier
content key on a feed -- and installs it with a plaintext
``ADMIN_PROVISION_KEY`` APDU, ``len | doc_id | secret``.  A terminal
that records its APDUs therefore recovers the secret and can decrypt
the whole container, content its policy denies included.

These tests state that contract as it stands, the way
``tests/feeds/test_feed.py`` pins the tier-revocation soft spot.  They
flip when the card unwraps keys inside the SOE.
"""

import pytest

from repro.community import Community, TierSpec
from repro.crypto.container import open_chunk
from repro.crypto.keys import DocumentKeys
from repro.smartcard.apdu import Instruction
from repro.smartcard.card import SmartCard

REPORT = (
    "<report><summary>sum</summary>"
    "<body>text<secret>classified</secret></body></report>"
)


@pytest.fixture
def recorded(monkeypatch):
    """Every command APDU each card receives, keyed by the card."""
    commands: dict[int, list] = {}
    process = SmartCard.process

    def record(card, command):
        commands.setdefault(id(card), []).append(command)
        return process(card, command)

    monkeypatch.setattr(SmartCard, "process", record)
    return commands


def _recovered_secrets(commands) -> dict[str, bytes]:
    """Parse ``len | doc_id | secret`` out of each provisioning APDU."""
    secrets = {}
    for command in commands:
        if command.ins == Instruction.ADMIN_PROVISION_KEY:
            length = command.data[0]
            doc_id = command.data[1 : 1 + length].decode("utf-8")
            secrets[doc_id] = command.data[1 + length :]
    return secrets


def _decrypt_off_card(community, doc_id: str, secret: bytes) -> bytes:
    """The whole plaintext container, decrypted without the card."""
    container = community.store.get(doc_id).container
    keys = DocumentKeys(secret)
    return b"".join(
        open_chunk(container.header, index, chunk, keys)
        for index, chunk in enumerate(container.chunks)
    )


def test_pull_apdus_reveal_the_document_secret(recorded):
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader")
    doc = owner.publish(
        REPORT, [("+", "reader", "/report/summary")], to=[reader], doc_id="rpt"
    )
    with reader.open(doc) as session:
        view = session.query().text()
    assert "classified" not in view  # the card enforced the policy
    secrets = _recovered_secrets(recorded[id(reader.card)])
    assert secrets == {"rpt": doc._owner_secret()}
    assert b"classified" in _decrypt_off_card(community, "rpt", secrets["rpt"])


def test_feed_catch_up_apdus_reveal_the_document_secret(recorded):
    community = Community()
    owner = community.enroll("owner")
    late = community.enroll("late", strict_memory=False)
    feed = community.feed(
        "intel",
        owner=owner,
        tiers=[
            TierSpec("public", allow=("/report/summary",)),
            TierSpec("internal", allow=("/report",)),
        ],
    )
    doc = feed.publish(REPORT, doc_id="rpt")
    feed.subscribe(late, "public", attach=False)
    caught = feed.catch_up(late)
    caught.require_ok()
    assert "classified" not in caught.view  # the card enforced the tier
    secrets = _recovered_secrets(recorded[id(late.card)])
    assert secrets == {"rpt": doc._owner_secret()}
    assert b"classified" in _decrypt_off_card(community, "rpt", secrets["rpt"])
