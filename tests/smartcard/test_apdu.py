"""Unit tests for APDU framing."""

import pytest

from repro.smartcard.apdu import (
    BatchAssembler,
    BatchOutcome,
    CommandAPDU,
    Instruction,
    ResponseAPDU,
    StatusWord,
    encode_batch_records,
    split_payload,
)


def test_command_wire_size():
    command = CommandAPDU(Instruction.PUT_CHUNK, data=b"x" * 10)
    assert command.wire_size == 15


def test_command_data_limit():
    CommandAPDU(Instruction.PUT_CHUNK, data=b"x" * 255)
    with pytest.raises(ValueError):
        CommandAPDU(Instruction.PUT_CHUNK, data=b"x" * 256)


def test_command_byte_ranges():
    with pytest.raises(ValueError):
        CommandAPDU(Instruction.SELECT, p1=300)


def test_response_ok_statuses():
    assert ResponseAPDU(StatusWord.OK).ok
    assert ResponseAPDU(0x6103, b"x").ok  # 61xx means more output
    assert not ResponseAPDU(StatusWord.WRONG_DATA).ok


def test_response_wire_size():
    assert ResponseAPDU(StatusWord.OK, b"abc").wire_size == 5


def test_response_data_limit():
    with pytest.raises(ValueError):
        ResponseAPDU(StatusWord.OK, b"x" * 257)


def test_split_payload():
    pieces = split_payload(b"x" * 600)
    assert [len(p) for p in pieces] == [255, 255, 90]
    assert split_payload(b"") == [b""]
    assert split_payload(b"ab", limit=1) == [b"a", b"b"]


# -- chunk-batch framing -----------------------------------------------------


def _roundtrip(members, limit):
    """Frame members with split_payload, reassemble card-side."""
    assembler = BatchAssembler()
    out = []
    for frame in split_payload(encode_batch_records(members), limit):
        out.extend(assembler.feed(frame))
    return out, assembler


def test_batch_records_roundtrip():
    members = [(0, b"alpha"), (1, b"bravo!"), (7, b"")]
    got, assembler = _roundtrip(members, 255)
    assert got == members
    assert assembler.residue == 0


def test_batch_records_survive_any_frame_cut():
    """Records may be cut mid-header or mid-blob at every frame size."""
    members = [(3, bytes(range(90))), (4, b"x" * 120), (5, b"tail")]
    for limit in (1, 2, 3, 5, 64, 255):
        got, assembler = _roundtrip(members, limit)
        assert got == members, f"limit={limit}"
        assert assembler.residue == 0


def test_batch_assembler_reports_residue():
    assembler = BatchAssembler()
    payload = encode_batch_records([(1, b"abcdef")])
    assert assembler.feed(payload[:-2]) == []
    assert assembler.residue == len(payload) - 2
    assert assembler.feed(payload[-2:]) == [(1, b"abcdef")]
    assembler.feed(payload[:3])
    assembler.reset()
    assert assembler.residue == 0


def test_batch_record_bounds():
    with pytest.raises(ValueError):
        encode_batch_records([(0x10000, b"")])
    with pytest.raises(ValueError):
        encode_batch_records([(0, b"x" * 0x10001)])


# -- validation errors and value semantics ------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"data": b"x" * 256}, "short-form APDU data exceeds 255 bytes"),
        ({"p1": 256}, "p1 out of byte range"),
        ({"p1": -1}, "p1 out of byte range"),
        ({"p2": 0x100}, "p2 out of byte range"),
        ({"p2": -5}, "p2 out of byte range"),
        ({"cla": 0x100}, "cla out of byte range"),
        ({"cla": -1}, "cla out of byte range"),
        # The first offending field is named.
        ({"p1": 300, "p2": 300, "cla": 300}, "p1 out of byte range"),
        ({"p2": 300, "cla": -1}, "p2 out of byte range"),
    ],
)
def test_command_validation_errors(kwargs, message):
    with pytest.raises(ValueError) as caught:
        CommandAPDU(Instruction.PUT_CHUNK, **kwargs)
    assert str(caught.value) == message


def test_command_accepts_the_byte_range_edges():
    command = CommandAPDU(Instruction.PUT_CHUNK, p1=0xFF, p2=0, data=b"x" * 255, cla=0)
    assert (command.p1, command.p2, command.cla, command.wire_size) == (255, 0, 0, 260)


def test_response_validation_error():
    with pytest.raises(ValueError) as caught:
        ResponseAPDU(StatusWord.OK, b"x" * 257)
    assert str(caught.value) == "short-form APDU response exceeds 256 bytes"
    assert ResponseAPDU(StatusWord.OK, b"x" * 256).wire_size == 258


def test_apdu_value_semantics():
    select = CommandAPDU(Instruction.SELECT, data=b"ab")
    assert select == CommandAPDU(Instruction.SELECT, 0, 0, b"ab", 0x80)
    assert select != CommandAPDU(Instruction.SELECT, data=b"ab", cla=0)
    assert hash(select) == hash((Instruction.SELECT, 0, 0, b"ab", 0x80))
    assert repr(select) == (
        "CommandAPDU(ins=<Instruction.SELECT: 164>, p1=0, p2=0, data=b'ab', cla=128)"
    )
    ok = ResponseAPDU(StatusWord.OK)
    assert ok == ResponseAPDU(0x9000, b"")
    assert ok != ResponseAPDU(0x9000, b"x")
    assert ok != select
    assert hash(ok) == hash((0x9000, b""))
    assert repr(ok) == "ResponseAPDU(sw=<StatusWord.OK: 36864>, data=b'')"


def test_batch_outcome_value_semantics():
    response = ResponseAPDU(StatusWord.OK)
    outcome = BatchOutcome(response)
    assert (
        outcome.next_offset, outcome.done, outcome.consumed, outcome.dropped,
        outcome.dropped_bytes, outcome.piggyback,
    ) == (0, False, 0, 0, 0, b"")
    assert outcome == BatchOutcome(response=response)
    assert outcome != BatchOutcome(response, consumed=1)
    assert repr(outcome) == (
        "BatchOutcome(response=ResponseAPDU(sw=<StatusWord.OK: 36864>, data=b''), "
        "next_offset=0, "
        "done=False, consumed=0, dropped=0, dropped_bytes=0, piggyback=b'')"
    )
