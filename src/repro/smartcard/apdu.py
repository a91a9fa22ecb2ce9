"""APDU framing: the terminal <-> card protocol units.

"APDU: Application Protocol Data Unit: communication protocol between
the terminal and the smart card" (footnote 1 of the paper).  We model
the ISO 7816-4 short form: a 5-byte command header, up to 255 bytes of
command data, up to 256 bytes of response data plus a 2-byte status
word.  The host-side driver (:mod:`repro.terminal.cardlink`) splits
every larger transfer into APDU sequences, and the link model charges
each unit's bytes and fixed latency -- that is how the paper's 2 KB/s
bottleneck shows up in the benchmarks.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable

from repro.values import ValueObject


class Instruction(enum.IntEnum):
    """Applet instruction set."""

    SELECT = 0xA4
    BEGIN_SESSION = 0x10
    PUT_HEADER = 0x12
    PUT_RULES = 0x14
    PUT_QUERY = 0x16
    PUT_CHUNK = 0x20
    PUT_CHUNK_BATCH = 0x22
    END_DOCUMENT = 0x30
    GET_OUTPUT = 0x40
    BEGIN_REFETCH = 0x50
    PUT_REFETCH_CHUNK = 0x52
    ADMIN_PROVISION_KEY = 0x60
    ADMIN_SET_VERSION = 0x62
    SC_OPEN = 0x66
    SC_ADMIN = 0x68
    GET_STATUS = 0x70


class StatusWord(enum.IntEnum):
    """ISO-style status words returned by the card."""

    OK = 0x9000
    MORE_OUTPUT = 0x6100  # + low byte: pending output hint
    SECURITY_STATUS_NOT_SATISFIED = 0x6982
    CONDITIONS_NOT_SATISFIED = 0x6985
    WRONG_DATA = 0x6A80
    RECORD_NOT_FOUND = 0x6A83
    MEMORY_FAILURE = 0x6581
    INS_NOT_SUPPORTED = 0x6D00


class CommandAPDU(ValueObject):
    """A command unit.  ``data`` must fit the short-form limit.

    ``wire_size`` -- bytes on the wire, CLA INS P1 P2 Lc + data -- is
    derived once, at construction.
    """

    __slots__ = ("ins", "p1", "p2", "data", "cla", "wire_size")
    _fields = ("ins", "p1", "p2", "data", "cla")

    def __init__(
        self, ins: Instruction, p1: int = 0, p2: int = 0, data: bytes = b"", cla: int = 0x80
    ) -> None:
        if len(data) > 255:
            raise ValueError("short-form APDU data exceeds 255 bytes")
        if not (0 <= p1 <= 0xFF and 0 <= p2 <= 0xFF and 0 <= cla <= 0xFF):
            for name, value in (("p1", p1), ("p2", p2), ("cla", cla)):
                if not 0 <= value <= 0xFF:
                    raise ValueError(f"{name} out of byte range")
        self.ins = ins
        self.p1 = p1
        self.p2 = p2
        self.data = data
        self.cla = cla
        self.wire_size = 5 + len(data)


class ResponseAPDU(ValueObject):
    """A response unit: data plus status word.

    ``ok`` (success or more output pending) and ``wire_size`` (data +
    SW1 SW2) are derived once, at construction.
    """

    __slots__ = ("sw", "data", "ok", "wire_size")
    _fields = ("sw", "data")

    def __init__(self, sw: int, data: bytes = b"") -> None:
        if len(data) > 256:
            raise ValueError("short-form APDU response exceeds 256 bytes")
        self.sw = sw
        self.data = data
        self.ok = sw == StatusWord.OK or (sw & 0xFF00) == 0x6100
        self.wire_size = len(data) + 2


#: Shared bare-OK response -- the answer to every PUT-style command,
#: allocated once (responses are immutable value objects).
RESPONSE_OK = ResponseAPDU(StatusWord.OK)


def split_payload(
    data: "bytes | bytearray | memoryview", limit: int = 255
) -> "list[memoryview] | list[bytes]":
    """Cut a transfer into APDU-sized pieces (at least one, maybe empty).

    The pieces are zero-copy views of ``data`` -- the payload bytes are
    materialized nowhere between the caller's buffer and the wire.
    Callers that outlive ``data`` (none today) must copy.
    """
    if not data:
        return [b""]
    view = memoryview(data)
    return [view[i:i + limit] for i in range(0, len(data), limit)]


# -- chunk-batch framing -----------------------------------------------------
#
# PUT_CHUNK_BATCH carries several chunks in one logical exchange.  The
# batch payload is a sequence of records ``index:u16 length:u16 blob``,
# cut into short-form frames with :func:`split_payload`; every frame is
# sent with P1=0 except the last, which sets :data:`BATCH_FINAL` and
# triggers processing of whatever the card has assembled.

#: P1 flag marking the last frame of a PUT_CHUNK_BATCH sequence.
BATCH_FINAL = 0x01

#: Layout of the batch-final response summary (before the piggybacked
#: output slice): next_offset, done, consumed, dropped, dropped_bytes.
BATCH_SUMMARY = ">QBHHI"

#: Bytes of framing per batch record (index:u16 + length:u16).
BATCH_RECORD_OVERHEAD = 4


def encode_batch_records(members: "list[tuple[int, bytes]]") -> bytearray:
    """Serialize ``(chunk_index, blob)`` pairs into one batch payload.

    Returns the working ``bytearray`` itself: the payload is consumed
    immediately by :func:`split_payload` and a final ``bytes()`` copy
    would double the transfer's memory traffic for nothing.
    """
    out = bytearray()
    for index, blob in members:
        if not 0 <= index <= 0xFFFF:
            raise ValueError("chunk index out of u16 range")
        if len(blob) > 0xFFFF:
            raise ValueError("chunk blob too large for batch record")
        out += index.to_bytes(2, "big")
        out += len(blob).to_bytes(2, "big")
        out += blob
    return out


class BatchOutcome(ValueObject):
    """Parsed result of one chunk exchange (the final frame's answer)."""

    __slots__ = _fields = (
        "response", "next_offset", "done", "consumed", "dropped", "dropped_bytes", "piggyback"
    )

    def __init__(
        self,
        response: ResponseAPDU,
        next_offset: int = 0,
        done: bool = False,
        consumed: int = 0,
        dropped: int = 0,
        dropped_bytes: int = 0,
        piggyback: bytes = b"",
    ) -> None:
        self.response = response
        self.next_offset = next_offset
        self.done = done
        self.consumed = consumed
        self.dropped = dropped
        self.dropped_bytes = dropped_bytes
        self.piggyback = piggyback


def transmit_chunk_batch(
    send: Callable[[CommandAPDU], ResponseAPDU],
    members: list[tuple[int, bytes]],
    limit: int = 255,
) -> BatchOutcome:
    """Drive one full batch exchange through ``send``.

    The terminal half of the PUT_CHUNK_BATCH protocol, called by
    :meth:`repro.terminal.cardlink.CardLink.put_chunks`: encode the
    records, cut them into frames, flag the last frame BATCH_FINAL, and
    parse the final response -- ``next_offset:u64 done:u8 consumed:u16
    dropped:u16 dropped_bytes:u32`` followed by the piggybacked output
    slice.  ``send`` must raise on a frame the card refuses.
    """
    payload = encode_batch_records(members)
    frames = split_payload(payload, limit)
    response = RESPONSE_OK
    for position, frame in enumerate(frames):
        final = position == len(frames) - 1
        response = send(
            CommandAPDU(
                Instruction.PUT_CHUNK_BATCH,
                p1=BATCH_FINAL if final else 0,
                data=frame,
            )
        )
    summary_size = struct.calcsize(BATCH_SUMMARY)
    next_offset, done, consumed, dropped, dropped_bytes = struct.unpack(
        BATCH_SUMMARY, response.data[:summary_size]
    )
    return BatchOutcome(
        response=response,
        next_offset=next_offset,
        done=bool(done),
        consumed=consumed,
        dropped=dropped,
        dropped_bytes=dropped_bytes,
        piggyback=response.data[summary_size:],
    )


class BatchAssembler:
    """Card-side incremental parser for PUT_CHUNK_BATCH frames.

    Frames may split a record anywhere; the assembler buffers only
    frame-spanning tails (at most one record header plus one chunk
    blob, a transient I/O staging area like the card's APDU buffer --
    it is deliberately *not* charged against the secure RAM quota).
    Complete records are handed back as soon as their last byte
    arrives, so the applet processes the batch in streaming order.

    Records fully contained in one frame -- the overwhelming common
    case -- are returned as zero-copy subviews of that frame; only a
    record split across frames is assembled through (and copied out
    of) the staging buffer.  Returned views must therefore be consumed
    before the next frame arrives, which the synchronous APDU exchange
    guarantees.
    """

    def __init__(self) -> None:
        self._staging = bytearray()

    def feed(
        self, frame: "bytes | memoryview"
    ) -> "list[tuple[int, bytes | memoryview]]":
        """Absorb one frame; return the records it completed."""
        view = frame if isinstance(frame, memoryview) else memoryview(frame)
        size = len(view)
        position = 0
        records: list[tuple[int, "bytes | memoryview"]] = []
        staging = self._staging
        while staging:
            # Finish the record left dangling by the previous frame:
            # top the staging buffer up to the header, then the body.
            if len(staging) < BATCH_RECORD_OVERHEAD:
                take = min(BATCH_RECORD_OVERHEAD - len(staging), size - position)
                staging += view[position:position + take]
                position += take
                if len(staging) < BATCH_RECORD_OVERHEAD:
                    return records
            end = BATCH_RECORD_OVERHEAD + int.from_bytes(staging[2:4], "big")
            take = min(end - len(staging), size - position)
            staging += view[position:position + take]
            position += take
            if len(staging) < end:
                return records
            index = int.from_bytes(staging[0:2], "big")
            records.append((index, bytes(staging[BATCH_RECORD_OVERHEAD:end])))
            staging.clear()
        while size - position >= BATCH_RECORD_OVERHEAD:
            length = int.from_bytes(view[position + 2:position + 4], "big")
            end = position + BATCH_RECORD_OVERHEAD + length
            if end > size:
                break
            index = int.from_bytes(view[position:position + 2], "big")
            records.append((index, view[position + BATCH_RECORD_OVERHEAD:end]))
            position = end
        if position < size:
            staging += view[position:]
        return records

    @property
    def residue(self) -> int:
        """Bytes of an unfinished record still staged."""
        return len(self._staging)

    def reset(self) -> None:
        self._staging.clear()
