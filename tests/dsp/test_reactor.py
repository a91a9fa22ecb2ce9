"""The event-loop DSP server: concurrency, admission control, hostility.

The reactor must serve a concurrent fleet byte-identically to the
in-process path, reject over-capacity traffic with typed
``ResourceExhausted`` frames whose capacity report survives the wire,
and shrug off hostile clients -- slow-loris partial frames, mid-frame
disconnects, garbage -- without wedging the loop or leaking buffers.
"""

import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.community import Community
from repro.dsp import RemoteDSP
from repro.dsp.reactor import AdmissionPolicy, ReactorDSPServer
from repro.dsp.remote import FrameReader, write_frame
from repro.dsp.wire import (
    GetChunkRange,
    GetHeader,
    WireError,
    decode_response,
    encode_request,
    frame,
)
from repro.errors import (
    ReproError,
    ResourceExhausted,
    TransportError,
)
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events

DOC_ID = "hospital"
READERS = ("doctor", "accountant")


def _tiny_buffer_connection(address, timeout=30.0):
    """A client socket whose receive buffer is clamped tiny, so an
    unread response stream back-pressures the server deterministically
    instead of vanishing into kernel buffers."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8192)
    sock.settimeout(timeout)
    sock.connect(address)
    return sock


@pytest.fixture
def published_community():
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in READERS]
    events = list(tree_to_events(hospital(n_patients=3)))
    owner.publish(
        events, hospital_rules(), to=readers, doc_id=DOC_ID, chunk_size=64
    )
    yield community
    community.close()


def _reference_views(community):
    views = {}
    for name in READERS:
        with community.member(name).open(DOC_ID) as session:
            views[name] = session.query().text()
    return views


def _pull_fleet(server, reference, fleet_size):
    results = {}
    errors = []

    def pull(slot, reader, transfer):
        try:
            with RemoteDSP.connect(server.address) as client:
                attached = Community.attach(client)
                member = attached.enroll(reader)
                document = attached.adopt(DOC_ID, "owner")
                with member.open(document, transfer=transfer) as session:
                    results[slot] = (reader, session.query().text())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((slot, exc))

    threads = [
        threading.Thread(
            target=pull,
            args=(
                slot,
                READERS[slot % len(READERS)],
                TransferPolicy.windowed(4) if slot % 2 else None,
            ),
        )
        for slot in range(fleet_size)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert len(results) == fleet_size
    for reader, view in results.values():
        assert view == reference[reader]


# -- concurrency -------------------------------------------------------------


def test_concurrent_fleet_byte_identical(published_community):
    reference = _reference_views(published_community)
    with published_community.serve() as server:
        assert isinstance(server, ReactorDSPServer)
        _pull_fleet(server, reference, fleet_size=16)
        assert len(server.connections) == 16
        for stats in server.connections:
            assert stats.requests > 0 and stats.errors == 0
            assert stats.bytes_in > 0 and stats.bytes_out > 0
        assert server.requests == sum(s.requests for s in server.connections)
        assert server.chunks_served > 0
        assert server.rejected_requests == 0


def test_slow_reader_does_not_stall_the_fleet(published_community):
    """A connection that stops reading only delays itself."""
    reference = _reference_views(published_community)
    with published_community.serve() as server:
        slow = socket.create_connection(server.address, timeout=10)
        # Ask for work, then never read the response.
        write_frame(slow, encode_request(GetHeader(DOC_ID)))
        try:
            _pull_fleet(server, reference, fleet_size=8)
        finally:
            slow.close()


# -- framing: however the request bytes arrive --------------------------------


def _served(community, frames, segments=None, admission=None, late=0.0):
    """Serve ``frames`` on one connection of a fresh reactor.

    Without ``segments`` the client sends one frame and reads its
    response before the next (the ``RemoteDSP`` shape); with them it
    sends each segment on its own, pausing so the reactor reads each in
    its own ``recv``, waits ``late`` seconds and only then reads the
    responses.  Returns the response bodies, the server's ``requests``
    and ``cache_hits``, the connection's stats, and the bytes the
    reactor still held queued just before the client began to read.
    """
    with community.serve(admission=admission) as server:
        sock = _tiny_buffer_connection(server.address)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = FrameReader(sock)
        queued = 0
        if segments is None:
            responses = []
            for framed in frames:
                sock.sendall(framed)
                responses.append(reader.read())
        else:
            for segment in segments:
                sock.sendall(segment)
                time.sleep(0.02)
            time.sleep(late)
            queued = sum(conn.pending_bytes for conn in server._conns)
            responses = [reader.read() for _ in frames]
        sock.close()
        (stats,) = server.connections
        counts = (stats.requests, stats.errors, stats.bytes_in, stats.bytes_out)
        return responses, server.requests, server.cache_hits, counts, queued


@pytest.mark.parametrize(
    "case",
    ["one-segment", "split-prefix", "two-in-one-segment", "frame-and-a-half"],
)
def test_request_segmentation_never_changes_the_answers(published_community, case):
    header = frame(encode_request(GetHeader(DOC_ID)))
    chunks = frame(encode_request(GetChunkRange(DOC_ID, 0, 8)))
    if case == "one-segment":
        frames = [header]
        segments = [header]
    elif case == "split-prefix":
        frames = [header]
        segments = [header[:2], header[2:]]
    elif case == "two-in-one-segment":
        # The second, identical request is a response-cache hit.
        frames = [header, header]
        segments = [header + header]
    else:
        frames = [header, chunks]
        segments = [header + chunks[: len(chunks) // 2], chunks[len(chunks) // 2:]]
    expected = _served(published_community, frames)
    got = _served(published_community, frames, segments)
    assert got[:4] == expected[:4]
    responses, requests, hits, counts, _ = got
    assert all(body is not None for body in responses)
    assert requests == len(frames)
    assert hits == (1 if case == "two-in-one-segment" else 0)
    assert counts == (
        len(frames),
        0,
        sum(map(len, frames)),
        sum(4 + len(body) for body in responses),
    )


def test_response_larger_than_sndbuf_reaches_a_late_reader(published_community):
    owner = published_community.member("owner")
    owner.publish(
        list(tree_to_events(hospital(n_patients=80, seed=7))),
        hospital_rules(),
        to=list(READERS),
        doc_id="large",
        chunk_size=64,
    )
    big = frame(encode_request(GetChunkRange("large", 0, 9999)))
    policy = AdmissionPolicy(sndbuf=16384)
    expected = _served(published_community, [big], admission=policy)
    got = _served(published_community, [big], [big], admission=policy, late=0.3)
    assert got[:4] == expected[:4]
    (body,), _, _, counts, queued = got
    assert len(body) > 4 * 16384
    # The kernel took only part of it: the rest waited under EVENT_WRITE.
    assert queued > 0
    assert counts == (1, 0, len(big), 4 + len(body))


def test_server_close_marks_connections_closed(published_community):
    reference = _reference_views(published_community)
    server = published_community.serve()
    _pull_fleet(server, reference, fleet_size=4)
    server.close()
    assert all(not stats.open for stats in server.connections)
    server.close()  # idempotent


# -- admission control -------------------------------------------------------


def test_connection_capacity_rejected_with_typed_frame(published_community):
    policy = AdmissionPolicy(max_connections=2)
    with published_community.serve(admission=policy) as server:
        keep = [RemoteDSP.connect(server.address) for _ in range(2)]
        for client in keep:
            assert client.get_header(DOC_ID).doc_id == DOC_ID
        over = RemoteDSP.connect(server.address)
        with pytest.raises(ResourceExhausted) as info:
            over.get_header(DOC_ID)
        report = info.value.capacity
        assert report is not None
        assert report.scope == "connections"
        assert report.limit == 2
        assert report.current >= 2
        assert server.rejected_connections == 1
        # The admitted clients keep full service.
        for client in keep:
            assert client.get_header(DOC_ID).doc_id == DOC_ID
            client.close()
        over.close()


def test_client_inflight_cap_rejects_pipelined_flood(published_community):
    """Pipelining far ahead of your own reading earns typed rejections.

    In-flight responses only accumulate once the kernel's socket
    buffers back-pressure, so both ends are clamped tiny (the policy's
    ``sndbuf`` server-side, ``SO_RCVBUF`` client-side) and the flood
    asks for whole-document chunk ranges, kilobytes each, reading
    nothing until the end.
    """
    policy = AdmissionPolicy(client_inflight=4, sndbuf=16384)
    with published_community.serve(admission=policy) as server:
        sock = _tiny_buffer_connection(server.address)
        flood = 600
        probe = GetChunkRange(DOC_ID, 0, 999)
        request = encode_request(probe)
        for _ in range(flood):
            write_frame(sock, request)
        outcomes = {"ok": 0, "rejected": 0}
        reports = []
        reader = FrameReader(sock)
        for _ in range(flood):
            body = reader.read()
            assert body is not None
            try:
                decode_response(probe, body)
                outcomes["ok"] += 1
            except ResourceExhausted as exc:
                outcomes["rejected"] += 1
                reports.append(exc.capacity)
        sock.close()
        # Every request was answered -- some served, some typed
        # rejections, none silently dropped.
        assert outcomes["ok"] >= 1
        assert outcomes["rejected"] >= 1
        assert outcomes["ok"] + outcomes["rejected"] == flood
        for report in reports:
            assert report is not None
            assert report.scope == "client-inflight"
            assert report.limit == 4
            assert report.current >= 4
        assert server.rejected_requests == outcomes["rejected"]
        # The loop survived the flood: fresh clients get full service.
        with RemoteDSP.connect(server.address) as client:
            assert client.get_header(DOC_ID).doc_id == DOC_ID


def test_backlog_cap_rejects_then_drops_slow_reader(published_community):
    policy = AdmissionPolicy(
        client_backlog=65536, client_inflight=10_000, sndbuf=16384
    )
    with published_community.serve(admission=policy) as server:
        sock = _tiny_buffer_connection(server.address, timeout=10)
        request = encode_request(GetChunkRange(DOC_ID, 0, 999))
        # Never read: the backlog fills, rejections start, and past the
        # hard bound (2x) the server hangs up rather than buffer more.
        disconnected = False
        try:
            for _ in range(5000):
                write_frame(sock, request)
        except OSError:
            disconnected = True
        deadline = time.monotonic() + 10
        while not disconnected and time.monotonic() < deadline:
            try:
                write_frame(sock, request)
            except OSError:
                disconnected = True
            time.sleep(0.01)
        assert disconnected
        assert server.rejected_requests > 0
        sock.close()
        # The loop survived: a fresh client gets full service.
        with RemoteDSP.connect(server.address) as client:
            assert client.get_header(DOC_ID).doc_id == DOC_ID


def test_remote_dsp_survives_rejection(published_community):
    """A typed rejection is a clean response: the connection stays usable."""
    policy = AdmissionPolicy(client_inflight=1)
    with published_community.serve(admission=policy) as server:
        with RemoteDSP.connect(server.address) as client:
            # Request-response clients never pipeline, so they are
            # admitted even at inflight=1 -- the floor contract.
            for _ in range(4):
                assert client.get_header(DOC_ID).doc_id == DOC_ID


# -- hostile clients ---------------------------------------------------------


def test_slow_loris_partial_frame_never_wedges(published_community):
    reference = _reference_views(published_community)
    with published_community.serve() as server:
        loris = socket.create_connection(server.address, timeout=10)
        body = encode_request(GetHeader(DOC_ID))
        framed = len(body).to_bytes(4, "big") + body
        # Drip two bytes of the length prefix, then stall.
        loris.sendall(bytes(framed[:2]))
        time.sleep(0.1)
        # Everyone else is served while the loris dangles.
        _pull_fleet(server, reference, fleet_size=4)
        # Completing the frame later still gets a correct answer.
        loris.sendall(bytes(framed[2:]))
        response = FrameReader(loris).read()
        assert response is not None
        header = decode_response(GetHeader(DOC_ID), response)
        assert header.doc_id == DOC_ID
        loris.close()


def test_mid_frame_disconnect_leaks_nothing(published_community):
    with published_community.serve() as server:
        for _ in range(8):
            sock = socket.create_connection(server.address, timeout=10)
            # Announce 100 bytes, deliver 10, vanish.
            sock.sendall((100).to_bytes(4, "big") + b"x" * 10)
            sock.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if all(not s.open for s in server.connections):
                break
            time.sleep(0.02)
        assert all(not stats.open for stats in server.connections)
        # Per-connection buffers went with their connections.
        assert server._open_connections() == 0
        with RemoteDSP.connect(server.address) as client:
            assert client.get_header(DOC_ID).doc_id == DOC_ID


def test_garbage_frames_answered_or_dropped_never_wedged(published_community):
    with published_community.serve() as server:
        # Garbage body: typed bad-request error frame, connection lives.
        sock = socket.create_connection(server.address, timeout=10)
        reader = FrameReader(sock)
        write_frame(sock, b"\xffnot-a-request")
        body = reader.read()
        assert body is not None
        with pytest.raises(ValueError):
            decode_response(GetHeader(DOC_ID), body)
        write_frame(sock, encode_request(GetHeader(DOC_ID)))
        ok = reader.read()
        assert decode_response(GetHeader(DOC_ID), ok).doc_id == DOC_ID
        sock.close()
        # Hostile length prefix: the connection is dropped outright.
        evil = socket.create_connection(server.address, timeout=10)
        evil.sendall((1 << 30).to_bytes(4, "big"))
        assert evil.recv(4096) == b""  # EOF, not a hang
        evil.close()
        with RemoteDSP.connect(server.address) as client:
            assert client.get_header(DOC_ID).doc_id == DOC_ID


# -- idle timeout ------------------------------------------------------------


def test_idle_connections_are_reaped(published_community):
    with published_community.serve(idle_timeout=0.5) as server:
        idle = socket.create_connection(server.address, timeout=10)
        # Poll the idle socket in short slices so the busy client's
        # traffic stays genuinely steady (well under the deadline).
        idle.settimeout(0.1)
        busy = RemoteDSP.connect(server.address)
        deadline = time.monotonic() + 10
        reaped = False
        while time.monotonic() < deadline:
            assert busy.get_header(DOC_ID).doc_id == DOC_ID
            try:
                if idle.recv(4096) == b"":
                    reaped = True
                    break
            except TimeoutError:
                continue
        assert reaped
        assert server.reaped_connections >= 1
        assert busy.get_header(DOC_ID).doc_id == DOC_ID
        busy.close()
        idle.close()


# -- chaos: cache integrity and read-path fuzz -------------------------------


def test_cache_intact_after_mid_write_run_disconnects(published_community):
    """A client that vanishes mid coalesced-write-run must not leave a
    partially-written entry in any loop's response cache."""
    with published_community.serve() as server:
        request = encode_request(GetChunkRange(DOC_ID, 0, 32))
        warm = socket.create_connection(server.address, timeout=10)
        write_frame(warm, request)
        good = FrameReader(warm).read()
        assert good is not None
        warm.close()
        assert server.cache_entries >= 1
        # Hostile replays: tiny receive buffer, a burst of pipelined
        # big-range requests so responses back up into a write run,
        # then a hard disconnect while the run is draining.
        for _ in range(4):
            evil = _tiny_buffer_connection(server.address)
            for _ in range(8):
                write_frame(evil, request)
            time.sleep(0.05)
            evil.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),  # RST, not FIN: mid-frame death
            )
            evil.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if server._open_connections() == 0:
                break
            time.sleep(0.02)
        # Every cached entry is still a complete, well-framed success.
        assert server.validate_caches() == []
        # And the cache still answers byte-identically.
        again = socket.create_connection(server.address, timeout=10)
        write_frame(again, request)
        assert FrameReader(again).read() == good
        again.close()


@pytest.fixture(scope="module")
def fuzz_server():
    community = Community()
    owner = community.enroll("owner")
    readers = [community.enroll(name) for name in READERS]
    events = list(tree_to_events(hospital(n_patients=3)))
    owner.publish(
        events, hospital_rules(), to=readers, doc_id=DOC_ID, chunk_size=64
    )
    server = community.serve()
    yield server
    community.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    garbage=st.binary(min_size=1, max_size=80),
    mode=st.sampled_from(["framed", "raw", "truncated"]),
)
def test_fuzzed_read_path_yields_only_typed_errors_never_hangs(
    fuzz_server, garbage, mode
):
    """Garbage and truncation into a live reactor connection produce a
    typed error frame or an orderly drop -- never a hang, never a
    partial view, never a torn cache entry."""
    sock = socket.create_connection(fuzz_server.address, timeout=10)
    sock.settimeout(5)
    try:
        if mode == "framed":
            write_frame(sock, garbage)
        elif mode == "raw":
            # Raw bytes may stop mid-prefix; signal EOF so the server
            # can conclude (a dangling partial frame is the slow-loris
            # case, covered above) and the read below cannot block on
            # a request the server is still legitimately waiting for.
            sock.sendall(garbage)
            sock.shutdown(socket.SHUT_WR)
        else:
            framed = frame(garbage)
            sock.sendall(framed[: max(1, len(framed) - 2)])
            sock.shutdown(socket.SHUT_WR)
        try:
            body = FrameReader(sock).read()
        except (WireError, TransportError):
            body = None  # hostile reply or mid-frame cut: an orderly end
        if body is not None:
            # Any reply must be a decodable typed error (or, for raw
            # bytes that happened to parse, a well-formed response).
            try:
                decode_response(GetHeader(DOC_ID), body)
            except (ValueError, ReproError):
                pass
    finally:
        sock.close()
    # The server survived: a clean client is served correctly and no
    # loop cached anything but complete success frames.
    probe = socket.create_connection(fuzz_server.address, timeout=10)
    probe.settimeout(5)
    write_frame(probe, encode_request(GetHeader(DOC_ID)))
    ok = FrameReader(probe).read()
    assert ok is not None
    assert decode_response(GetHeader(DOC_ID), ok).doc_id == DOC_ID
    probe.close()
    assert fuzz_server.validate_caches() == []


# -- GET_META through the reactor's response cache ----------------------------


def test_get_meta_cached_and_flushed_on_generation_moves(published_community):
    """The freshness probe is response-cacheable -- but never stale.

    The per-loop cache keys on raw request bytes and is dropped
    wholesale whenever the store generation moves, so a cached
    ``GET_META`` can only ever repeat an answer that is still true.  A
    republish (version bump) and a key revocation (``has_key`` flip)
    both move the generation, so both must be visible on the very next
    probe.
    """
    with published_community.serve() as server:
        with RemoteDSP.connect(server.address, timeout=10.0) as client:
            first = client.get_meta(DOC_ID, "doctor")
            assert first.has_key
            entries = server.cache_entries
            assert entries >= 1
            second = client.get_meta(DOC_ID, "doctor")
            assert second == first
            assert server.cache_entries == entries  # served from cache
            assert server.validate_caches() == []
            # Republish: the probe must see the new version at once.
            published_community.member("owner").publish(
                list(tree_to_events(hospital(n_patients=3, seed=23))),
                hospital_rules(),
                to=list(READERS),
                doc_id=DOC_ID,
                chunk_size=64,
            )
            third = client.get_meta(DOC_ID, "doctor")
            assert third.doc_version == first.doc_version + 1
            assert third.generation != first.generation
            # Key revocation bumps only the generation -- the flushed
            # cache is what keeps the revocation bit truthful.
            store = published_community.store
            assert store is not None
            store.remove_wrapped_key(DOC_ID, "doctor")
            revoked = client.get_meta(DOC_ID, "doctor")
            assert revoked.has_key is False
            assert revoked.generation != third.generation
