"""Authenticated admin channel: the access-rights update protocol.

The demo paper stresses that "the tamper resistance of the access
control relies not only on the SOE but also on the whole environment
(e.g., communication protocol, access rights update protocol, etc.)"
(Section 1, objective 2).  Keys and version registers must only change
under the document owner's authority, even though every byte crosses
an untrusted terminal.

The protocol is a deliberately small cousin of GlobalPlatform secure
messaging:

1. **Mutual challenge** -- host sends an 8-byte challenge; the card
   answers with its own challenge plus a cryptogram proving knowledge
   of the shared admin key.  Both sides derive a fresh session key
   from ``(admin key, host challenge, card challenge)``.
2. **Wrapped commands** -- every admin command is framed as
   ``seq(4) | opcode(1) | payload`` with an 8-byte HMAC under the
   session key.  The sequence number is checked strictly increasing,
   so recorded frames cannot be replayed, reordered or dropped
   silently.

Once a card is *personalized* (an admin key installed), the plaintext
``ADMIN_PROVISION_KEY`` instruction is refused -- all provisioning must
flow through this channel.
"""

from __future__ import annotations

import hashlib
import hmac
import os

from repro.errors import TamperDetected

CHALLENGE_SIZE = 8
FRAME_MAC_SIZE = 8

OP_PROVISION_KEY = 0x01
OP_SET_VERSION = 0x02
OP_REVOKE_KEY = 0x03


class SecureChannelError(TamperDetected):
    """Authentication, integrity or ordering failure on the channel."""


def _session_key(admin_key: bytes, host_challenge: bytes, card_challenge: bytes) -> bytes:
    material = b"sc:" + host_challenge + card_challenge
    return hmac.new(admin_key, material, hashlib.sha256).digest()[:16]


def _cryptogram(session_key: bytes) -> bytes:
    return hmac.new(session_key, b"card-auth", hashlib.sha256).digest()[:8]


def _frame_mac(session_key: bytes, body: bytes) -> bytes:
    return hmac.new(session_key, b"frame:" + body, hashlib.sha256).digest()[
        :FRAME_MAC_SIZE
    ]


class CardSecureChannel:
    """Card-side endpoint (state lives inside the SOE)."""

    def __init__(self, admin_key: bytes) -> None:
        self._admin_key = admin_key
        self._session_key: bytes | None = None
        self._expected_seq = 0

    def open(self, host_challenge: bytes) -> tuple[bytes, bytes]:
        """Answer a channel opening; returns (card challenge, cryptogram)."""
        if len(host_challenge) != CHALLENGE_SIZE:
            raise SecureChannelError("bad host challenge size")
        card_challenge = os.urandom(CHALLENGE_SIZE)
        self._session_key = _session_key(
            self._admin_key, host_challenge, card_challenge
        )
        self._expected_seq = 0
        return card_challenge, _cryptogram(self._session_key)

    def unwrap(self, frame: bytes) -> tuple[int, bytes]:
        """Verify one admin frame; returns (opcode, payload).

        Raises :class:`SecureChannelError` on any MAC or sequence
        violation and closes the session (fail-stop).
        """
        if self._session_key is None:
            raise SecureChannelError("secure channel not open")
        if len(frame) < 5 + FRAME_MAC_SIZE:
            raise SecureChannelError("frame too short")
        body, tag = frame[:-FRAME_MAC_SIZE], frame[-FRAME_MAC_SIZE:]
        expected = _frame_mac(self._session_key, body)
        if not hmac.compare_digest(expected, tag):
            self._session_key = None
            raise SecureChannelError("frame MAC mismatch")
        seq = int.from_bytes(body[:4], "big")
        if seq != self._expected_seq:
            self._session_key = None
            raise SecureChannelError(
                f"sequence violation: got {seq}, expected {self._expected_seq}"
            )
        self._expected_seq += 1
        return body[4], body[5:]

    def close(self) -> None:
        self._session_key = None
        self._expected_seq = 0


class HostSecureChannel:
    """Owner-side endpoint (runs on the owner's own trusted device)."""

    def __init__(self, admin_key: bytes) -> None:
        self._admin_key = admin_key
        self._session_key: bytes | None = None
        self._host_challenge: bytes | None = None
        self._seq = 0

    def open(self) -> bytes:
        """Start a session; returns the host challenge to send."""
        self._host_challenge = os.urandom(CHALLENGE_SIZE)
        self._session_key = None
        self._seq = 0
        return self._host_challenge

    def authenticate(self, card_challenge: bytes, cryptogram: bytes) -> None:
        """Verify the card's answer and derive the session key."""
        if self._host_challenge is None:
            raise SecureChannelError("open() first")
        session_key = _session_key(
            self._admin_key, self._host_challenge, card_challenge
        )
        if not hmac.compare_digest(_cryptogram(session_key), cryptogram):
            raise SecureChannelError("card cryptogram mismatch (wrong key?)")
        self._session_key = session_key

    def wrap(self, opcode: int, payload: bytes) -> bytes:
        """Frame one admin command for transport."""
        if self._session_key is None:
            raise SecureChannelError("channel not authenticated")
        body = self._seq.to_bytes(4, "big") + bytes([opcode]) + payload
        self._seq += 1
        return body + _frame_mac(self._session_key, body)

    # -- payload builders ------------------------------------------------

    @staticmethod
    def provision_key_payload(doc_id: str, secret: bytes) -> bytes:
        doc = doc_id.encode("utf-8")
        return bytes([len(doc)]) + doc + secret

    @staticmethod
    def set_version_payload(doc_id: str, version: int) -> bytes:
        doc = doc_id.encode("utf-8")
        return bytes([len(doc)]) + doc + version.to_bytes(8, "big")

    @staticmethod
    def revoke_key_payload(doc_id: str) -> bytes:
        doc = doc_id.encode("utf-8")
        return bytes([len(doc)]) + doc
