"""Unit tests for the on-card applet (session protocol level)."""

import pytest

from repro.core import AccessRule, RuleSet, reference_view
from repro.crypto.container import IntegrityError, seal_blob, seal_document
from repro.crypto.keys import DocumentKeys
from repro.errors import DocumentLocked
from repro.skipindex.encoder import IndexMode, encode_document
from repro.smartcard.applet import AppletError, CardApplet, PendingStrategy
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import parse_tree
from repro.xmlstream.writer import write_string

SECRET = b"unit-test-secret"
DOC = "<r><pub>open</pub><priv>hidden</priv></r>"
RULES = [("+", "u", "/r"), ("-", "u", "//priv")]


def _publish(document=DOC, version=1, index_mode=IndexMode.RECURSIVE, chunk_size=48):
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(parse_string(document), index_mode)
    container = seal_document(plaintext, "d", version, keys, chunk_size=chunk_size)
    records = [
        seal_blob(
            f"{sign}|{subject}|{path}".encode(), f"d#rule:{i}", version, keys
        )
        for i, (sign, subject, path) in enumerate(RULES)
    ]
    return container, records, version


def _applet(strict=False, strategy=PendingStrategy.BUFFER):
    soe = SecureOperatingEnvironment(strict_memory=strict)
    soe.provision_key("d", SECRET)
    return CardApplet(soe, strategy=strategy)


def _run_session(applet, container, records, version, subject="u", query=None):
    applet.begin_session("d", subject, query=query)
    applet.put_header(container.header)
    for index, record in enumerate(records):
        applet.put_rule_record(index, version, record)
    index = 0
    output = bytearray()
    while index < container.header.chunk_count:
        result = applet.put_chunk(index, container.chunks[index])
        output.extend(applet.read_output(1 << 20))
        if result.document_done:
            break
        index = max(index + 1, result.next_offset // container.header.chunk_size)
    applet.end_document()
    output.extend(applet.read_output(1 << 20))
    return output.decode("utf-8")


def test_full_session_produces_authorized_view():
    container, records, version = _publish()
    view = _run_session(_applet(), container, records, version)
    rules = RuleSet([AccessRule.parse(s, u, p) for s, u, p in RULES])
    expected = write_string(reference_view(parse_tree(DOC), rules, "u"))
    assert view == expected


def test_repeated_query_sessions_intern_nothing():
    """The card's registry caches the query policy with its tables: a
    second pull under the same query interns no product state and
    charges the same modeled work."""
    container, records, version = _publish()
    applet = _applet()
    runs = []
    for __ in range(2):
        view = _run_session(applet, container, records, version, query="//pub")
        stats = applet.engine_stats
        runs.append((view, stats.product_states_interned, (
            stats.events, stats.token_checks, stats.token_advances,
            stats.conditions_created, stats.watcher_bytes,
        )))
    (view, cold, modeled), (again, warm, remodeled) = runs
    assert view == again == "<r><pub>open</pub></r>"
    assert cold > 0 and warm == 0
    assert remodeled == modeled


def test_session_requires_provisioned_key():
    applet = CardApplet(SecureOperatingEnvironment())
    with pytest.raises(DocumentLocked) as info:
        applet.begin_session("unknown", "u")
    assert "'unknown'" in str(info.value)
    assert info.value.doc_id == "unknown"


def test_header_for_other_document_rejected():
    container, __, ___ = _publish()
    applet = _applet()
    applet.soe.provision_key("other", SECRET)
    applet.begin_session("other", "u")
    with pytest.raises(IntegrityError):
        applet.put_header(container.header)


def test_version_replay_rejected():
    container_v2, records2, v2 = _publish(version=2)
    container_v1, records1, v1 = _publish(version=1)
    applet = _applet()
    applet.begin_session("d", "u")
    applet.put_header(container_v2.header)  # register jumps to 2
    applet.begin_session("d", "u")
    with pytest.raises(IntegrityError):
        applet.put_header(container_v1.header)


def test_same_version_accepted_again():
    container, records, version = _publish()
    applet = _applet()
    _run_session(applet, container, records, version)
    view = _run_session(applet, container, records, version)
    assert "open" in view


def test_chunks_before_header_rejected():
    container, __, ___ = _publish()
    applet = _applet()
    applet.begin_session("d", "u")
    with pytest.raises(AppletError):
        applet.put_chunk(0, container.chunks[0])


def test_structural_truncation_detected():
    container, records, version = _publish()
    applet = _applet()
    applet.begin_session("d", "u")
    applet.put_header(container.header)
    for index, record in enumerate(records):
        applet.put_rule_record(index, version, record)
    applet.put_chunk(0, container.chunks[0])
    with pytest.raises(IntegrityError):
        applet.end_document()


def test_corrupted_rule_record_rejected():
    container, records, version = _publish()
    applet = _applet()
    applet.begin_session("d", "u")
    applet.put_header(container.header)
    bad = bytearray(records[0])
    bad[0] ^= 1
    with pytest.raises(IntegrityError):
        applet.put_rule_record(0, version, bytes(bad))


def test_skip_accounting_without_index_is_zero():
    container, records, version = _publish(index_mode=IndexMode.NONE)
    applet = _applet()
    _run_session(applet, container, records, version)
    assert applet.bytes_skipped == 0
    assert applet.bytes_decrypted >= container.header.total_length


def test_skip_reduces_decryption_with_index():
    big_doc = "<r><pub>open</pub><priv>" + "hidden " * 120 + "</priv></r>"
    container, records, version = _publish(big_doc, chunk_size=48)
    applet = _applet()
    view = _run_session(applet, container, records, version)
    assert "hidden" not in view
    assert applet.bytes_skipped > 500
    assert applet.bytes_decrypted < container.header.total_length


def test_refetch_flow_delivers_fragment():
    document = "<r><b><d>early</d><c/></b></r>"
    keys = DocumentKeys(SECRET)
    plaintext = encode_document(parse_string(document), IndexMode.RECURSIVE)
    container = seal_document(plaintext, "d", 1, keys, chunk_size=32)
    record = seal_blob(b"+|u|//b[c]/d", "d#rule:0", 1, keys)
    applet = _applet(strategy=PendingStrategy.REFETCH)
    applet.begin_session("d", "u", strategy=PendingStrategy.REFETCH)
    applet.put_header(container.header)
    applet.put_rule_record(0, 1, record)
    index = 0
    main = bytearray()
    while index < container.header.chunk_count:
        result = applet.put_chunk(index, container.chunks[index])
        main.extend(applet.read_output(1 << 20))
        if result.document_done:
            break
        index = max(index + 1, result.next_offset // 32)
    granted = applet.end_document()
    main.extend(applet.read_output(1 << 20))
    assert len(granted) == 1
    entry = granted[0]
    applet.begin_refetch(entry.entry_id)
    first = entry.start // 32
    last = (entry.end - 1) // 32
    fragment = bytearray()
    for chunk_index in range(first, last + 1):
        result = applet.put_refetch_chunk(chunk_index, container.chunks[chunk_index])
        fragment.extend(applet.read_output(1 << 20))
        if result.document_done:
            break
    assert "early" in fragment.decode()
    assert "early" not in main.decode()


def test_refetch_requires_main_pass_done():
    container, records, version = _publish()
    applet = _applet()
    applet.begin_session("d", "u")
    with pytest.raises(AppletError):
        applet.begin_refetch(0)


SKIP_DOC = "<r><pub>open</pub><priv>" + "hidden " * 120 + "</priv></r>"


def _run_batched(container, records, version, tampered=None, batch=4):
    """One session sent as PUT_CHUNK_BATCH members, ``batch`` per batch;
    member ``tampered`` (if any) has one ciphertext bit flipped.  Returns
    the view, the applet, the members sent and the count dropped."""
    applet = _applet()
    applet.begin_session("d", "u")
    applet.put_header(container.header)
    for index, record in enumerate(records):
        applet.put_rule_record(index, version, record)
    chunk_size = container.header.chunk_size
    count = container.header.chunk_count
    index = dropped = 0
    sent: list[int] = []
    output = bytearray()
    while index < count:
        applet.begin_chunk_batch()
        members = range(index, min(index + batch, count))
        sent.extend(members)
        for member in members:
            blob = container.chunks[member]
            if member == tampered:
                blob = bytes([blob[0] ^ 1]) + blob[1:]
            applet.put_batch_member(member, blob)
        result = applet.end_chunk_batch()
        dropped += result.chunks_dropped
        output.extend(applet.read_output(1 << 20))
        if result.document_done:
            break
        index = max(members.stop, result.next_offset // chunk_size)
    applet.end_document()
    output.extend(applet.read_output(1 << 20))
    return output.decode("utf-8"), applet, sent, dropped


def test_batch_members_a_skip_outran_are_dropped_before_mac():
    """A batch member that a mid-batch skip made useless is dropped
    on-card before MAC and decryption: tampering it changes nothing,
    while tampering a consumed member is caught."""
    container, records, version = _publish(SKIP_DOC, chunk_size=48)
    golden, applet, sent, dropped = _run_batched(container, records, version)
    assert golden == "<r><pub>open</pub></r>" and dropped > 0
    cost = (applet.bytes_decrypted, applet.soe.cycles_used)
    unread = []
    caught = 0
    for member in sent:
        try:
            view, tampered, __, again = _run_batched(
                container, records, version, tampered=member
            )
        except IntegrityError:
            caught += 1  # consumed: its MAC check saw the flip
            continue
        unread.append(member)
        assert view == golden and again == dropped
        assert (tampered.bytes_decrypted, tampered.soe.cycles_used) == cost
    assert len(unread) == dropped
    assert caught == len(sent) - dropped > 0
