"""Streaming semantics of ViewStream: laziness, settling, materializing."""

import pytest

from repro.community import Community, ViewStream
from repro.smartcard.applet import PendingStrategy
from repro.terminal.proxy import QueryOutcome, ViewPiece
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.events import OpenEvent


def _flat_community(n_items=40):
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader")
    body = "".join(f"<item><a>data {i}</a></item>" for i in range(n_items))
    doc = owner.publish(
        f"<list>{body}</list>", [("+", "reader", "/list")], to=[reader]
    )
    return community, reader, doc


def test_first_piece_arrives_before_full_pull():
    """Acceptance: the stream yields output before the document has
    been pulled -- probed on the DSP's served-chunk order."""
    community, reader, doc = _flat_community()
    total = doc.container.header.chunk_count
    assert total >= 8
    with reader.open(doc) as session:
        stream = session.query()
        first = next(iter(stream))
        assert first.kind == "view"
        assert first.text.startswith("<list>")
        served_at_first = community.dsp.chunks_served
        assert served_at_first < total, (
            "first fragment must not wait for the whole document"
        )
        # Fetch order probe: the chunks served so far are a strict
        # prefix of the document.
        assert community.dsp.served_ranges[-1][1] < total - 1
        full = stream.text()
    assert community.dsp.chunks_served == total
    assert full == stream.text()  # materializing again is stable


def test_incremental_pieces_join_to_the_buffered_view():
    __, reader, doc = _flat_community()
    with reader.open(doc, transfer=TransferPolicy.windowed(4)) as session:
        stream = session.query()
        joined = "".join(piece.text for piece in stream if piece.kind == "view")
        assert len(stream.pieces) > 1  # genuinely incremental
    # The buffered pull of the same view through the member's proxy.
    assert joined == reader.proxy.query(doc.doc_id, "reader").xml


def test_events_materializer_roundtrips():
    __, reader, doc = _flat_community(n_items=3)
    with reader.open(doc) as session:
        events = session.query().events()
    assert events[0] == OpenEvent("list")
    opens = [e for e in events if isinstance(e, OpenEvent)]
    assert [e.tag for e in opens].count("item") == 3


def test_refetch_fragments_settle_by_document_position():
    """REFETCH sessions deliver pending subtrees out of the main flow;
    the stream orders them by absolute document position."""
    community = Community()
    owner = community.enroll("owner")
    reader = community.enroll("reader", ram_quota=None)
    filler = "x" * 60
    notes = "".join(
        f"<note><body>note {i} {filler}</body><to>reader</to></note>"
        for i in range(4)
    )
    # The [to = ...] predicate resolves only after the body streamed,
    # so under REFETCH every body is skipped and replayed afterwards.
    doc = owner.publish(
        f"<notes>{notes}</notes>",
        [("+", "reader", '//note[to = "reader"]/body')],
        to=[reader],
        chunk_size=32,
    )
    with reader.open(doc) as session:
        stream = session.query(strategy=PendingStrategy.REFETCH)
        fragments = stream.fragments
    assert stream.metrics.refetch_count >= 2, "scenario must refetch"
    positions = [piece.position for piece in fragments]
    assert positions == sorted(positions)
    texts = [piece.text for piece in fragments]
    assert texts == sorted(texts, key=lambda t: int(t.split()[1]))
    # And the settled text is the main view plus fragments in order.
    main = "".join(p.text for p in stream.pieces if p.kind == "view")
    assert stream.text() == main + "".join(texts)


def test_viewstream_settles_out_of_order_fragments():
    """Unit: a transport replaying refetches out of order still
    settles by document position."""
    pieces = [
        ViewPiece("view", "<r></r>", position=0),
        ViewPiece("fragment", "<late/>", position=900, entry_id=2),
        ViewPiece("fragment", "<early/>", position=100, entry_id=0),
        ViewPiece("fragment", "<mid/>", position=500, entry_id=1),
    ]
    outcome = QueryOutcome(xml="<r></r>")
    stream = ViewStream(iter(pieces), outcome)
    assert stream.text() == "<r></r><early/><mid/><late/>"


def test_metrics_available_after_exhaustion():
    __, reader, doc = _flat_community(n_items=5)
    with reader.open(doc) as session:
        stream = session.query()
        metrics = stream.metrics  # implicit finish()
    assert metrics.chunks_sent > 0
    assert metrics.clock.total() > 0
    assert stream.closed


def test_transfer_override_never_leaks_into_the_terminal():
    """A session's transfer plan rides the query, not the proxy: a
    failed open leaves nothing behind, and overlapping sessions each
    keep their own plan."""
    community, reader, doc = _flat_community()
    default = reader.proxy.transfer
    # Failed open (no key) with an override: terminal untouched.
    eve = community.enroll("eve")
    from repro.errors import KeyNotGranted

    with pytest.raises(KeyNotGranted):
        eve.open(doc, transfer=TransferPolicy.windowed(8))
    assert reader.proxy.transfer is default
    # Overlapping sessions: closing the first must not clobber the
    # second's plan nor pin the terminal afterwards.
    s1 = reader.open(doc, transfer=TransferPolicy.windowed(2))
    s2 = reader.open(doc, transfer=TransferPolicy.windowed(8))
    requests_w2 = s1.query().metrics.dsp_requests
    s1.close()
    requests_w8 = s2.query().metrics.dsp_requests
    s2.close()
    assert requests_w8 < requests_w2  # s2 really ran at window 8
    assert reader.proxy.transfer is default
    with reader.open(doc) as session:
        sequential = session.query().metrics.dsp_requests
    assert sequential > requests_w2  # back to one request per chunk


def test_session_close_drains_inflight_streams():
    community, reader, doc = _flat_community()
    total = doc.container.header.chunk_count
    with reader.open(doc) as session:
        stream = session.query()
        next(iter(stream))  # abandon mid-stream
    assert community.dsp.chunks_served == total  # close() finished it
    assert stream.closed
