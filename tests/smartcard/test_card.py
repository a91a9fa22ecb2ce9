"""Unit tests for the APDU dispatcher."""

import struct

from repro.crypto.container import seal_document
from repro.crypto.keys import DocumentKeys
from repro.skipindex.encoder import encode_document
from repro.smartcard.apdu import CommandAPDU, Instruction, StatusWord
from repro.smartcard.card import SmartCard, decode_header, encode_header
from repro.xmlstream.parser import parse_string

SECRET = b"card-test-secret"


def _select(card):
    response = card.process(CommandAPDU(Instruction.SELECT, data=b"aid"))
    assert response.sw == StatusWord.OK
    return response


def test_commands_before_select_rejected():
    card = SmartCard()
    response = card.process(CommandAPDU(Instruction.GET_STATUS))
    assert response.sw == StatusWord.CONDITIONS_NOT_SATISFIED


def test_unknown_instruction():
    card = SmartCard()
    _select(card)
    response = card.process(CommandAPDU(Instruction.ADMIN_SET_VERSION))
    assert response.sw == StatusWord.INS_NOT_SUPPORTED


def test_provision_key_roundtrip():
    card = SmartCard()
    _select(card)
    data = bytes([3]) + b"doc" + SECRET
    response = card.process(
        CommandAPDU(Instruction.ADMIN_PROVISION_KEY, data=data)
    )
    assert response.sw == StatusWord.OK
    assert card.soe.keys_for("doc").secret == SECRET


def test_header_codec_round_trip():
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(parse_string("<a>x</a>"))
    container = seal_document(plaintext, "docid", 7, keys, chunk_size=32)
    decoded = decode_header(encode_header(container.header))
    assert decoded == container.header


def test_begin_session_without_key_maps_to_status_word():
    card = SmartCard()
    _select(card)
    data = bytes([0, 1]) + b"d" + bytes([1]) + b"u"
    response = card.process(CommandAPDU(Instruction.BEGIN_SESSION, data=data))
    assert response.sw == StatusWord.CONDITIONS_NOT_SATISFIED


def test_malformed_data_maps_to_wrong_data():
    card = SmartCard()
    _select(card)
    response = card.process(
        CommandAPDU(Instruction.BEGIN_SESSION, data=b"")
    )
    assert response.sw == StatusWord.WRONG_DATA


def test_security_failure_maps_to_status_word():
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(parse_string("<a>x</a>"))
    container = seal_document(plaintext, "d", 1, keys, chunk_size=32)
    card = SmartCard()
    _select(card)
    card.process(
        CommandAPDU(
            Instruction.ADMIN_PROVISION_KEY,
            data=bytes([1]) + b"d" + b"wrong-key-16byte",
        )
    )
    begin = bytes([0, 1]) + b"d" + bytes([1]) + b"u"
    assert card.process(
        CommandAPDU(Instruction.BEGIN_SESSION, data=begin)
    ).sw == StatusWord.OK
    response = card.process(
        CommandAPDU(Instruction.PUT_HEADER, data=encode_header(container.header))
    )
    assert response.sw == StatusWord.SECURITY_STATUS_NOT_SATISFIED


def test_get_status_payload():
    card = SmartCard()
    _select(card)
    response = card.process(CommandAPDU(Instruction.GET_STATUS))
    assert response.sw == StatusWord.OK
    ram, cycles, decrypted, skipped = struct.unpack(">IQQQ", response.data)
    assert ram >= 0 and cycles >= 0 and decrypted == 0 and skipped == 0


def _streaming_card(doc_id="d", plaintext=None):
    """A card with a verified header, ready to take chunks."""
    keys = DocumentKeys(SECRET)
    if plaintext is None:
        body = " ".join(f"word{i}" for i in range(40))
        plaintext = encode_document(
            parse_string(f"<a><b>{body}</b><c>two</c></a>")
        )
    container = seal_document(plaintext, doc_id, 1, keys, chunk_size=32)
    card = SmartCard()
    _select(card)
    card.process(
        CommandAPDU(
            Instruction.ADMIN_PROVISION_KEY,
            data=bytes([len(doc_id)]) + doc_id.encode() + SECRET,
        )
    )
    begin = bytes([0, len(doc_id)]) + doc_id.encode() + bytes([1]) + b"u"
    assert card.process(
        CommandAPDU(Instruction.BEGIN_SESSION, data=begin)
    ).sw == StatusWord.OK
    assert card.process(
        CommandAPDU(Instruction.PUT_HEADER, data=encode_header(container.header))
    ).sw == StatusWord.OK
    # Grant everything to "u" so no subtree is skipped: every chunk of
    # the stream is genuinely needed by the card.
    from repro.crypto.container import seal_blob

    record = seal_blob(b"+|u|//a", f"{doc_id}#rule:0", 1, keys)
    rule = struct.pack(">Q", 1) + record
    assert card.process(
        CommandAPDU(Instruction.PUT_RULES, data=rule)
    ).sw == StatusWord.OK
    return card, container


def test_malformed_plaintext_maps_to_wrong_data_at_its_chunk():
    # A complete attribute whose value is not UTF-8: the card reports
    # malformed data at the chunk carrying it, not a truncated document
    # (tamper) at END_DOCUMENT.
    plaintext = encode_document(parse_string('<a k="vv"><b>x</b></a>'))
    assert plaintext.count(b"vv") == 1
    card, container = _streaming_card(
        plaintext=plaintext.replace(b"vv", b"\xff\xff")
    )
    response = card.process(
        CommandAPDU(Instruction.PUT_CHUNK, p1=0, p2=0, data=container.chunks[0])
    )
    assert response.sw == StatusWord.WRONG_DATA


def test_chunk_batch_before_header_rejected():
    card = SmartCard()
    _select(card)
    from repro.smartcard.apdu import BATCH_FINAL

    response = card.process(
        CommandAPDU(Instruction.PUT_CHUNK_BATCH, p1=BATCH_FINAL, data=b"")
    )
    assert response.sw == StatusWord.CONDITIONS_NOT_SATISFIED


def test_chunk_batch_truncated_record_rejected():
    from repro.smartcard.apdu import BATCH_FINAL, encode_batch_records

    card, container = _streaming_card()
    payload = encode_batch_records([(0, container.chunks[0])])
    response = card.process(
        CommandAPDU(Instruction.PUT_CHUNK_BATCH, p1=BATCH_FINAL, data=payload[:-1])
    )
    assert response.sw == StatusWord.WRONG_DATA
    # The aborted batch leaves the card able to start a fresh one.
    response = card.process(
        CommandAPDU(Instruction.PUT_CHUNK_BATCH, p1=BATCH_FINAL, data=payload)
    )
    assert response.ok


def test_chunk_batch_matches_per_chunk_results():
    from repro.smartcard.apdu import (
        BATCH_FINAL,
        encode_batch_records,
        split_payload,
    )

    card, container = _streaming_card()
    members = list(enumerate(container.chunks))
    frames = split_payload(encode_batch_records(members), 255)
    for position, frame in enumerate(frames):
        final = position == len(frames) - 1
        response = card.process(
            CommandAPDU(
                Instruction.PUT_CHUNK_BATCH,
                p1=BATCH_FINAL if final else 0,
                data=frame,
            )
        )
        assert response.ok
        if not final:
            assert response.data == b""
    next_offset, done, consumed, dropped, dropped_bytes = struct.unpack(
        ">QBHHI", response.data[:17]
    )
    assert done == 1
    assert consumed == len(members)
    assert dropped == 0 and dropped_bytes == 0
    # Compare against the sequential card: same resume offset, and the
    # batch response piggybacks the same authorized output bytes.
    other, __ = _streaming_card()
    for index, blob in members:
        seq_resp = other.process(
            CommandAPDU(
                Instruction.PUT_CHUNK,
                p1=index >> 8,
                p2=index & 0xFF,
                data=blob,
            )
        )
        assert seq_resp.ok
    seq_offset, seq_done = struct.unpack(">QB", seq_resp.data[:9])
    assert (next_offset, done) == (seq_offset, seq_done)
    assert card.applet.bytes_decrypted == other.applet.bytes_decrypted
