"""Persisted carousel cycles for late-joiner catch-up.

A :class:`CycleSnapshot` is one tier's complete broadcast cycle -- the
exact ``(kind, index, payload)`` frames the channel carried -- plus the
stamps needed to prove it is still current: the tier epoch and a
:class:`~repro.dsp.freshness.Freshness` (the store stamp observed when
it was recorded and each document's (container version, rules
version) pair).

Validity is the shared freshness rule: a matching store stamp means
*nothing* at the DSP changed and the snapshot is fresh with zero
further reads; the stamp carries the store's per-process boot id, so a
reopened process never trusts a coincidentally-equal generation
counter.  Otherwise the versions are re-read -- a republish moves a
container version, a policy update moves a rules version -- and any
mismatch, like a moved tier epoch (a revocation), makes the snapshot
stale.  A live feed re-records a stale snapshot from the store; a
sealed (reopened) feed reports it, so a late joiner can never be
served a cycle from before a revocation or republish.

Everything in a snapshot is ciphertext the broadcast channel already
carried in public; persisting it at the untrusted DSP leaks nothing
new.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.dsp.freshness import Freshness
from repro.errors import TamperDetected

_MAGIC = b"FSNAP2\n"
_KINDS = ("header", "chunk", "end")


@dataclass(frozen=True, slots=True)
class CycleSnapshot:
    """One recorded carousel cycle of one feed tier."""

    feed: str
    tier: str
    epoch: int
    #: The recording store's stamp plus one ``(container_version,
    #: rules_version)`` pair per document of :attr:`doc_ids`.
    freshness: Freshness
    #: The cycle's documents, in broadcast order.
    doc_ids: tuple[str, ...]
    #: The cycle's frames, exactly as broadcast.
    frames: tuple[tuple[str, int, bytes], ...]


def encode_snapshot(snapshot: CycleSnapshot) -> bytes:
    """Serialize a snapshot to the backend's blob format."""
    parts: list[bytes] = [_MAGIC]
    freshness = snapshot.freshness
    for label in (snapshot.feed, snapshot.tier, freshness.boot):
        raw = label.encode("utf-8")
        parts.append(struct.pack(">H", len(raw)) + raw)
    parts.append(struct.pack(">QQ", snapshot.epoch, freshness.generation))
    parts.append(struct.pack(">H", len(snapshot.doc_ids)))
    for doc_id, (version, rules_version) in zip(
        snapshot.doc_ids, freshness.versions
    ):
        raw = doc_id.encode("utf-8")
        parts.append(struct.pack(">H", len(raw)) + raw)
        parts.append(struct.pack(">QQ", version, rules_version))
    parts.append(struct.pack(">I", len(snapshot.frames)))
    for kind, index, payload in snapshot.frames:
        parts.append(
            struct.pack(">BII", _KINDS.index(kind), index, len(payload))
        )
        parts.append(payload)
    return b"".join(parts)


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise TamperDetected(
                "feed snapshot blob is truncated "
                f"(needed {end} bytes, have {len(self.data)})"
            )
        value = self.data[self.offset:end]
        self.offset = end
        return value

    def unpack(self, fmt: str) -> tuple[int, ...]:
        raw = self.take(struct.calcsize(fmt))
        return struct.unpack(fmt, raw)

    def label(self) -> str:
        (length,) = self.unpack(">H")
        return self.take(length).decode("utf-8")


def decode_snapshot(blob: bytes) -> CycleSnapshot:
    """Parse a backend blob; :class:`TamperDetected` on malformation.

    The snapshot lives at the untrusted DSP, so a malformed blob is
    treated exactly like any other tampered artifact -- a typed error,
    never an ``IndexError`` escaping from parsing.
    """
    reader = _Reader(blob)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise TamperDetected("feed snapshot blob has a bad magic prefix")
    feed = reader.label()
    tier = reader.label()
    boot = reader.label()
    epoch, generation = reader.unpack(">QQ")
    (doc_count,) = reader.unpack(">H")
    doc_ids: list[str] = []
    versions: list[tuple[int, int]] = []
    for _ in range(doc_count):
        doc_ids.append(reader.label())
        version, rules_version = reader.unpack(">QQ")
        versions.append((version, rules_version))
    (frame_count,) = reader.unpack(">I")
    frames: list[tuple[str, int, bytes]] = []
    for _ in range(frame_count):
        kind_code, index, length = reader.unpack(">BII")
        if kind_code >= len(_KINDS):
            raise TamperDetected(
                f"feed snapshot frame has unknown kind code {kind_code}"
            )
        frames.append((_KINDS[kind_code], index, bytes(reader.take(length))))
    if reader.offset != len(blob):
        raise TamperDetected(
            f"feed snapshot blob carries {len(blob) - reader.offset} "
            "trailing bytes"
        )
    return CycleSnapshot(
        feed=feed,
        tier=tier,
        epoch=epoch,
        freshness=Freshness(generation, boot, tuple(versions)),
        doc_ids=tuple(doc_ids),
        frames=tuple(frames),
    )
