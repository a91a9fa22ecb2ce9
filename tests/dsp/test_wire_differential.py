"""The codec encodes and decodes exactly as the field-by-field one did.

``_blob_list`` reads a ``GetChunkRange`` or ``GetRules`` response in
one loop, ``encode_response`` joins the blob list once, and requests
are packed and parsed from one layout per kind.  The frozen codec
below is the earlier field-by-field one (a cursor read per field,
``_Reader.blob`` per chunk, ``+=`` per blob).  On real responses from
a published document, and on every request kind, every truncation and
every single-byte flip must decode to the same value, or raise the
same exception type with the same message, and the encoded bytes must
be identical.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import Community
from repro.dsp import wire
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

DOC_ID = "hospital"

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


# -- the frozen per-blob codec -------------------------------------------------


class _FrozenReader:
    __slots__ = ("data", "pos")

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, count):
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise wire.WireError("truncated frame")
        value = self.data[self.pos:end]
        self.pos = end
        return value

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return _U16.unpack(self.take(2))[0]

    def u32(self):
        return _U32.unpack(self.take(4))[0]

    def u64(self):
        return _U64.unpack(self.take(8))[0]

    def string(self):
        raw = self.take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise wire.WireError("string field is not valid UTF-8") from exc

    def blob(self):
        length = self.u32()
        if length > wire.MAX_FRAME:
            raise wire.WireError("blob length exceeds frame bound")
        return self.take(length)

    def finish(self):
        if self.pos != len(self.data):
            raise wire.WireError("trailing bytes after message")


def _frozen_decode(request, body):
    reader = _FrozenReader(body)
    op = reader.u8()
    if op == wire.OP_ERROR:
        wire._raise_error(reader)
    if op != (wire._OK | wire._REQUEST_OPS[type(request)]):
        raise wire.WireError(
            f"response opcode {op:#04x} does not answer "
            f"{type(request).__name__}"
        )
    if isinstance(request, wire.GetChunkRange):
        value = [reader.blob() for __ in range(reader.u16())]
    else:
        assert isinstance(request, wire.GetRules)
        version = reader.u64()
        value = (version, [reader.blob() for __ in range(reader.u16())])
    reader.finish()
    return value


def _frozen_encode(request, value):
    head = bytes([wire._OK | wire._REQUEST_OPS[type(request)]])
    if isinstance(request, wire.GetChunkRange):
        body = head + _U16.pack(len(value))
        for blob in value:
            body += _U32.pack(len(blob)) + blob
        return body
    version, records = value
    body = head + _U64.pack(version) + _U16.pack(len(records))
    for record in records:
        body += _U32.pack(len(record)) + record
    return body


def _frozen_pack_str(value):
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise wire.WireError("string field exceeds 65535 bytes")
    return _U16.pack(len(raw)) + raw


def _frozen_encode_request(request):
    body = bytes([wire._REQUEST_OPS[type(request)]]) + _frozen_pack_str(request.doc_id)
    if isinstance(request, wire.GetChunk):
        body += _U32.pack(request.index)
    elif isinstance(request, wire.GetChunkRange):
        body += _U32.pack(request.start) + _U32.pack(request.count)
    elif isinstance(request, wire.GetWrappedKey):
        body += _frozen_pack_str(request.recipient)
    elif isinstance(request, wire.GetMeta):
        body += _frozen_pack_str(request.subject)
    return body


def _frozen_decode_request(body):
    reader = _FrozenReader(body)
    op = reader.u8()
    doc_id = reader.string()
    if op == wire.OP_HEADER:
        request = wire.GetHeader(doc_id)
    elif op == wire.OP_CHUNK:
        request = wire.GetChunk(doc_id, reader.u32())
    elif op == wire.OP_CHUNK_RANGE:
        request = wire.GetChunkRange(doc_id, reader.u32(), reader.u32())
    elif op == wire.OP_RULES:
        request = wire.GetRules(doc_id)
    elif op == wire.OP_WRAPPED_KEY:
        request = wire.GetWrappedKey(doc_id, reader.string())
    elif op == wire.OP_META:
        request = wire.GetMeta(doc_id, reader.string())
    else:
        raise wire.WireError(f"unknown request opcode {op:#04x}")
    reader.finish()
    return request


# -- real responses ------------------------------------------------------------


@pytest.fixture(scope="module")
def responses():
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in ("doctor", "accountant")]
    events = list(tree_to_events(hospital(n_patients=3)))
    owner.publish(
        events, hospital_rules(), to=readers, doc_id=DOC_ID, chunk_size=64
    )
    dsp = community.dsp
    cases = []
    for request in (
        wire.GetChunkRange(DOC_ID, 0, 8),
        wire.GetChunkRange(DOC_ID, 3, 1),
        wire.GetChunkRange(DOC_ID, 0, 999),
        wire.GetRules(DOC_ID),
    ):
        if isinstance(request, wire.GetRules):
            value = dsp.get_rules(DOC_ID)
        else:
            value = dsp.get_chunk_range(DOC_ID, request.start, request.count)
        cases.append((request, value))
    yield cases
    community.close()


def _outcome(decode, request, body):
    try:
        return ("value", decode(request, body))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return ("raised", type(exc), str(exc))


def test_encoded_bytes_are_identical(responses):
    synthetic = [
        (wire.GetChunkRange("d", 0, 0), []),
        (wire.GetChunkRange("d", 0, 3), [b"", b"x", bytes(300)]),
        (wire.GetRules("d"), (0, [])),
        (wire.GetRules("d"), (2**64 - 1, [b"", b"rule"])),
    ]
    for request, value in responses + synthetic:
        encoded = wire.encode_response(request, value)
        assert encoded == _frozen_encode(request, value)
        assert wire.decode_response(request, encoded) == value


def test_every_truncation_decodes_alike(responses):
    for request, value in responses:
        body = wire.encode_response(request, value)
        assert len(body) > 64
        for cut in range(len(body) + 1):
            piece = body[:cut]
            assert _outcome(wire.decode_response, request, piece) == _outcome(
                _frozen_decode, request, piece
            ), (request, cut)


@pytest.mark.parametrize("mask", [0xFF, 0x01, 0x80])
def test_every_single_byte_flip_decodes_alike(responses, mask):
    for request, value in responses:
        body = wire.encode_response(request, value)
        for offset in range(len(body)):
            flipped = bytearray(body)
            flipped[offset] ^= mask
            flipped = bytes(flipped)
            assert _outcome(wire.decode_response, request, flipped) == _outcome(
                _frozen_decode, request, flipped
            ), (request, offset, mask)


def test_flips_reach_every_error_message(responses):
    """The flips exercise each of the blob decoder's three messages."""
    messages = set()
    for request, value in responses:
        body = wire.encode_response(request, value)
        for offset in range(len(body)):
            for mask in (0xFF, 0x01, 0x80):
                flipped = bytearray(body)
                flipped[offset] ^= mask
                outcome = _outcome(wire.decode_response, request, bytes(flipped))
                if outcome[0] == "raised" and outcome[1] is wire.WireError:
                    messages.add(outcome[2])
    assert {
        "truncated frame",
        "blob length exceeds frame bound",
        "trailing bytes after message",
    } <= messages


# -- requests --------------------------------------------------------------------

REQUESTS = [
    wire.GetHeader(DOC_ID),
    wire.GetChunk(DOC_ID, 7),
    wire.GetChunkRange(DOC_ID, 16, 8),
    wire.GetRules(DOC_ID),
    wire.GetWrappedKey(DOC_ID, "doctor"),
    wire.GetMeta("d\u00e9j\u00e0-vu", "nurse"),
]


def _request_outcome(decode, body):
    try:
        return ("value", decode(body))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: type(r).__name__)
def test_requests_encode_and_decode_alike(request_):
    body = wire.encode_request(request_)
    assert body == _frozen_encode_request(request_)
    cases = [body[:cut] for cut in range(len(body) + 1)] + [body + b"\x00"]
    for offset in range(len(body)):
        for mask in (0xFF, 0x01, 0x80):
            flipped = bytearray(body)
            flipped[offset] ^= mask
            cases.append(bytes(flipped))
    for case in cases:
        assert _request_outcome(wire.decode_request, case) == _request_outcome(
            _frozen_decode_request, case
        ), case


@given(
    st.one_of(st.just(b""), st.integers(0, 7).map(lambda op: bytes([op]))),
    st.binary(max_size=64),
)
@settings(max_examples=300, deadline=None)
def test_garbage_requests_decode_alike(opcode, noise):
    body = opcode + noise
    assert _request_outcome(wire.decode_request, body) == _request_outcome(
        _frozen_decode_request, body
    )


def test_oversized_request_string_rejected_alike():
    request = wire.GetWrappedKey(DOC_ID, "x" * 0x10000)
    with pytest.raises(wire.WireError, match="exceeds 65535") as new:
        wire.encode_request(request)
    with pytest.raises(wire.WireError) as old:
        _frozen_encode_request(request)
    assert str(new.value) == str(old.value)
