"""The DSP wire protocol: a length-prefixed binary codec.

Serializes the six DSP request types (header, chunk, chunk range,
rules, wrapped key, meta) and their responses -- including the typed errors
(:class:`~repro.errors.UnknownDocument`,
:class:`~repro.errors.KeyNotGranted`, out-of-range, bad request) -- so
a :class:`~repro.dsp.remote.RemoteDSP` raises exactly what the
in-process :class:`~repro.dsp.server.DSPServer` raises.

Framing: every message travels as ``[u32 length][body]`` (big endian);
the body starts with one opcode byte.  Requests use opcodes 1..6;
responses echo the request opcode with the high bit set (``0x80 |
op``); error responses use opcode ``0x7F`` regardless of the request.
Strings are ``[u16 length][utf-8]``; blobs are ``[u32 length][raw]``.
Document headers ride the same encoding the card's ``PUT_HEADER`` APDU
uses (:func:`repro.smartcard.card.encode_header`), so the proxy can
forward them without re-serialization.

Malformed input raises :class:`WireError` (a ``ValueError``) -- a
hostile or corrupted peer can never raise anything else out of the
decoder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Union

from repro.crypto.container import DocumentHeader
from repro.dsp.freshness import Freshness
from repro.errors import (
    CapacityReport,
    KeyNotGranted,
    ResourceExhausted,
    TransportError,
    UnknownDocument,
)
from repro.smartcard.card import decode_header, encode_header

__all__ = [
    "DocMeta",
    "GetChunk",
    "GetChunkRange",
    "GetHeader",
    "GetMeta",
    "GetRules",
    "GetWrappedKey",
    "MAX_FRAME",
    "Request",
    "WireError",
    "decode_request",
    "decode_response",
    "encode_error",
    "encode_request",
    "encode_response",
    "frame",
]

#: Upper bound on one frame body; anything larger is treated as a
#: protocol violation rather than a buffer to allocate.
MAX_FRAME = 1 << 26  # 64 MiB

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_U32X2 = struct.Struct(">II")
_NO_FIELDS = struct.Struct(">")
#: An opcode and the ``u16`` length of the string that follows it.
_OP_STR = struct.Struct(">BH")

OP_HEADER = 0x01
OP_CHUNK = 0x02
OP_CHUNK_RANGE = 0x03
OP_RULES = 0x04
OP_WRAPPED_KEY = 0x05
OP_META = 0x06
OP_ERROR = 0x7F
_OK = 0x80

ERR_UNKNOWN_DOCUMENT = 0x01
ERR_KEY_NOT_GRANTED = 0x02
ERR_OUT_OF_RANGE = 0x03
ERR_BAD_REQUEST = 0x04
ERR_SERVER = 0x05
ERR_RESOURCE_EXHAUSTED = 0x06


class WireError(ValueError):
    """A frame violated the protocol (truncated, oversized, unknown op)."""


# -- request types -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GetHeader:
    doc_id: str


@dataclass(frozen=True, slots=True)
class GetChunk:
    doc_id: str
    index: int


@dataclass(frozen=True, slots=True)
class GetChunkRange:
    doc_id: str
    start: int
    count: int


@dataclass(frozen=True, slots=True)
class GetRules:
    doc_id: str


@dataclass(frozen=True, slots=True)
class GetWrappedKey:
    doc_id: str
    recipient: str


@dataclass(frozen=True, slots=True)
class GetMeta:
    """The freshness probe: everything a view cache needs, one frame.

    ``subject`` scopes the ``has_key`` bit -- key-level revocation
    bumps the store generation but neither the document nor the rules
    version, so a cache validating piecewise must also learn whether
    this subject's wrapped key still exists.
    """

    doc_id: str
    subject: str


@dataclass(frozen=True, slots=True)
class DocMeta:
    """The :class:`GetMeta` response: version vector plus grant bit.

    The fields mirror the wire layout; :attr:`freshness` bundles the
    store stamp ``(generation, boot)`` and the document's
    ``(doc_version, rules_version)`` for the shared freshness rule in
    :mod:`repro.dsp.freshness`.  ``has_key`` reports whether the
    probing subject's wrapped key is still on the shelf.
    """

    doc_version: int
    rules_version: int
    generation: int
    boot: str
    has_key: bool

    @property
    def freshness(self) -> Freshness:
        """The probed document's current :class:`Freshness`."""
        return Freshness(
            self.generation, self.boot, ((self.doc_version, self.rules_version),)
        )

    @property
    def wire_size(self) -> int:
        """Size in bytes of the encoded success response body."""
        return 1 + 8 * 3 + 2 + len(self.boot.encode("utf-8")) + 1


Request = Union[
    GetHeader, GetChunk, GetChunkRange, GetRules, GetWrappedKey, GetMeta
]

_REQUEST_OPS: dict[type[object], int] = {
    GetHeader: OP_HEADER,
    GetChunk: OP_CHUNK,
    GetChunkRange: OP_CHUNK_RANGE,
    GetRules: OP_RULES,
    GetWrappedKey: OP_WRAPPED_KEY,
    GetMeta: OP_META,
}

#: Per request opcode: the request type and the fields after its
#: document id, as one struct of ``u32`` fields (``None``: one more
#: string instead).
_REQUEST_LAYOUTS: dict[int, tuple[Callable[..., Request], struct.Struct | None]] = {
    OP_HEADER: (GetHeader, _NO_FIELDS),
    OP_CHUNK: (GetChunk, _U32),
    OP_CHUNK_RANGE: (GetChunkRange, _U32X2),
    OP_RULES: (GetRules, _NO_FIELDS),
    OP_WRAPPED_KEY: (GetWrappedKey, None),
    OP_META: (GetMeta, None),
}

#: Each request type's success-response opcode, as the body's first byte.
_RESPONSE_HEADS: dict[type[object], bytes] = {
    kind: bytes([_OK | op]) for kind, op in _REQUEST_OPS.items()
}


# -- primitive fields --------------------------------------------------------


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string field exceeds 65535 bytes")
    return _U16.pack(len(raw)) + raw


def _pack_bytes(value: bytes) -> bytes:
    return _U32.pack(len(value)) + value


def _pack_blobs(head: bytes, blobs: list[bytes]) -> bytes:
    """``head``, a ``u16`` count, then each blob ``u32``-prefixed."""
    pack = _U32.pack
    parts = [head, _U16.pack(len(blobs))]
    append = parts.append
    for blob in blobs:
        append(pack(len(blob)))
        append(blob)
    return b"".join(parts)


def _string_at(data: bytes, pos: int) -> tuple[str, int]:
    """The ``u16``-prefixed UTF-8 string at ``pos``, and where it ends."""
    start = pos + 2
    if start > len(data):
        raise WireError("truncated frame")
    length: int = _U16.unpack_from(data, pos)[0]
    end = start + length
    if end > len(data):
        raise WireError("truncated frame")
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise WireError("string field is not valid UTF-8") from exc


def _blob_list(data: bytes, pos: int) -> list[bytes]:
    """A ``u16`` count and that many ``u32``-prefixed blobs from ``pos``
    to the end of ``data``, read in one loop."""
    end = len(data)
    if pos + 2 > end:
        raise WireError("truncated frame")
    count: int = _U16.unpack_from(data, pos)[0]
    pos += 2
    unpack = _U32.unpack_from
    blobs: list[bytes] = []
    append = blobs.append
    for __ in range(count):
        start = pos + 4
        if start > end:
            raise WireError("truncated frame")
        length: int = unpack(data, pos)[0]
        if length > MAX_FRAME:
            raise WireError("blob length exceeds frame bound")
        pos = start + length
        if pos > end:
            raise WireError("truncated frame")
        append(data[start:pos])
    if pos != end:
        raise WireError("trailing bytes after message")
    return blobs


class _Reader:
    """A bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise WireError("truncated frame")
        value = self.data[self.pos:end]
        self.pos = end
        return value

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        value: int = _U32.unpack(self.take(4))[0]
        return value

    def u64(self) -> int:
        value: int = _U64.unpack(self.take(8))[0]
        return value

    def string(self) -> str:
        value, self.pos = _string_at(self.data, self.pos)
        return value

    def blob(self) -> bytes:
        length = self.u32()
        if length > MAX_FRAME:
            raise WireError("blob length exceeds frame bound")
        return self.take(length)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireError("trailing bytes after message")


def frame(body: bytes) -> bytes:
    """Wrap one message body in its ``[u32 length]`` prefix."""
    if len(body) > MAX_FRAME:
        raise WireError("frame exceeds protocol bound")
    return _U32.pack(len(body)) + body


# -- requests ----------------------------------------------------------------


def encode_request(request: Request) -> bytes:
    """One request as a frame body (no length prefix)."""
    raw = request.doc_id.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise WireError("string field exceeds 65535 bytes")
    body = _OP_STR.pack(_REQUEST_OPS[type(request)], len(raw)) + raw
    if isinstance(request, GetChunkRange):
        return body + _U32X2.pack(request.start, request.count)
    if isinstance(request, GetChunk):
        return body + _U32.pack(request.index)
    if isinstance(request, GetWrappedKey):
        return body + _pack_str(request.recipient)
    if isinstance(request, GetMeta):
        return body + _pack_str(request.subject)
    return body


def decode_request(body: bytes) -> Request:
    """Parse a frame body into a request; raises :class:`WireError`."""
    if not body:
        raise WireError("truncated frame")
    doc_id, pos = _string_at(body, 1)
    layout = _REQUEST_LAYOUTS.get(body[0])
    if layout is None:
        raise WireError(f"unknown request opcode {body[0]:#04x}")
    kind, fields = layout
    values: tuple[object, ...]
    if fields is None:
        second, pos = _string_at(body, pos)
        values = (second,)
    else:
        if pos + fields.size > len(body):
            raise WireError("truncated frame")
        values = fields.unpack_from(body, pos)
        pos += fields.size
    if pos != len(body):
        raise WireError("trailing bytes after message")
    return kind(doc_id, *values)


# -- responses ---------------------------------------------------------------


def encode_response(request: Request, value: object) -> bytes:
    """The success response to ``request`` as a frame body.

    ``value`` is whatever the matching ``DSPServer`` method returned:
    a :class:`DocumentHeader`, a chunk blob, a list of chunk blobs, a
    ``(version, records)`` pair, or a wrapped-key blob.
    """
    head = _RESPONSE_HEADS[type(request)]
    if isinstance(request, GetChunkRange):
        assert isinstance(value, list)
        return _pack_blobs(head, value)
    if isinstance(request, GetHeader):
        assert isinstance(value, DocumentHeader)
        return head + _pack_bytes(encode_header(value))
    if isinstance(request, (GetChunk, GetWrappedKey)):
        assert isinstance(value, bytes)
        return head + _pack_bytes(value)
    if isinstance(request, GetMeta):
        assert isinstance(value, DocMeta)
        return (
            head
            + _U64.pack(value.doc_version)
            + _U64.pack(value.rules_version)
            + _U64.pack(value.generation)
            + _pack_str(value.boot)
            + bytes([1 if value.has_key else 0])
        )
    assert isinstance(value, tuple)
    version, records = value
    return _pack_blobs(head + _U64.pack(version), records)


def encode_error(exc: BaseException) -> bytes:
    """Any dispatch failure as an error frame body.

    The typed store errors keep their identity across the wire; bounds
    and argument errors map to their builtin types; anything else
    degrades to a generic server error (surfaced client-side as
    :class:`~repro.errors.TransportError`).

    :class:`~repro.errors.ResourceExhausted` -- the admission-control
    rejection -- additionally carries its
    :class:`~repro.errors.CapacityReport` (scope, limit, current), so
    a rejected client learns *which* ceiling it hit and where the
    server stood, the 429-with-capacity-report contract.
    """
    doc_id = getattr(exc, "doc_id", None) or ""
    subject = getattr(exc, "subject", None) or ""
    if isinstance(exc, UnknownDocument):
        code = ERR_UNKNOWN_DOCUMENT
    elif isinstance(exc, KeyNotGranted):
        code = ERR_KEY_NOT_GRANTED
    elif isinstance(exc, ResourceExhausted):
        report = exc.capacity or CapacityReport("", 0, 0)
        return (
            bytes([OP_ERROR, ERR_RESOURCE_EXHAUSTED])
            + _pack_str(str(exc))
            + _pack_str(doc_id)
            + _pack_str(subject)
            + _pack_str(report.scope)
            + _U32.pack(report.limit)
            + _U32.pack(report.current)
        )
    elif isinstance(exc, IndexError):
        code = ERR_OUT_OF_RANGE
    elif isinstance(exc, ValueError):
        code = ERR_BAD_REQUEST
    else:
        code = ERR_SERVER
    return (
        bytes([OP_ERROR, code])
        + _pack_str(str(exc))
        + _pack_str(doc_id)
        + _pack_str(subject)
    )


def _raise_error(reader: _Reader) -> None:
    code = reader.u8()
    message = reader.string()
    doc_id = reader.string() or None
    subject = reader.string() or None
    if code == ERR_RESOURCE_EXHAUSTED:
        scope = reader.string()
        limit = reader.u32()
        current = reader.u32()
        reader.finish()
        raise ResourceExhausted(
            message,
            doc_id=doc_id,
            subject=subject,
            capacity=CapacityReport(scope, limit, current) if scope else None,
        )
    reader.finish()
    if code == ERR_UNKNOWN_DOCUMENT:
        raise UnknownDocument(message, doc_id=doc_id)
    if code == ERR_KEY_NOT_GRANTED:
        raise KeyNotGranted(message, doc_id=doc_id, subject=subject)
    if code == ERR_OUT_OF_RANGE:
        raise IndexError(message)
    if code == ERR_BAD_REQUEST:
        raise ValueError(message)
    if code == ERR_SERVER:
        raise TransportError(message, doc_id=doc_id, subject=subject)
    raise WireError(f"unknown error code {code:#04x}")


def decode_response(request: Request, body: bytes) -> object:
    """Parse the response to ``request``; re-raises wire-carried errors.

    Returns the same Python value the matching in-process
    ``DSPServer`` method would have returned, so a remote client is a
    drop-in for the local one.
    """
    if body[:1] != _RESPONSE_HEADS[type(request)]:
        reader = _Reader(body)
        op = reader.u8()
        if op == OP_ERROR:
            _raise_error(reader)
        raise WireError(
            f"response opcode {op:#04x} does not answer "
            f"{type(request).__name__}"
        )
    if isinstance(request, GetChunkRange):
        return _blob_list(body, 1)
    if isinstance(request, GetRules):
        if len(body) < 9:
            raise WireError("truncated frame")
        return _U64.unpack_from(body, 1)[0], _blob_list(body, 9)
    reader = _Reader(body, 1)
    value: object
    if isinstance(request, GetHeader):
        try:
            value = decode_header(reader.blob())
        except WireError:
            raise
        except (ValueError, IndexError, struct.error) as exc:
            raise WireError(f"malformed header payload: {exc}") from exc
    elif isinstance(request, (GetChunk, GetWrappedKey)):
        value = reader.blob()
    else:
        value = DocMeta(
            doc_version=reader.u64(),
            rules_version=reader.u64(),
            generation=reader.u64(),
            boot=reader.string(),
            has_key=reader.u8() != 0,
        )
    reader.finish()
    return value
