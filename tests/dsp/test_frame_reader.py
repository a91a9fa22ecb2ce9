"""The client's frame reader: one ``recv`` per small frame, nothing stale.

:class:`~repro.dsp.remote.FrameReader` is the one reader of
length-prefixed frames.  These tests drive it against scripted fake
sockets that implement only ``recv`` -- the surface E20's tap and the
chaos ``FaultySocket`` offer -- and check how a poisoned
:class:`~repro.dsp.remote.RemoteDSP` drops the reader's buffer with
its socket.
"""

import pytest

from repro.dsp import RemoteDSP, wire
from repro.dsp.remote import RECV_MAX, RECV_SIZE, FrameReader, RetryPolicy
from repro.errors import TransportError


class _ScriptedSocket:
    """Hands out scripted ``recv`` results; an exception entry raises.

    Each ``recv`` returns the next script entry cut to ``bufsize``
    (the rest stays for the next call), then ``b""`` forever.  Every
    requested ``bufsize`` and every sent byte is kept.
    """

    def __init__(self, *script):
        self.script = list(script)
        self.asked = []
        self.sent = bytearray()
        self.closed = False

    def recv(self, bufsize):
        self.asked.append(bufsize)
        if not self.script:
            return b""
        head = self.script.pop(0)
        if isinstance(head, BaseException):
            raise head
        if len(head) > bufsize:
            self.script.insert(0, head[bufsize:])
        return head[:bufsize]

    def sendall(self, data):
        self.sent += data

    def settimeout(self, value):
        pass

    def close(self):
        self.closed = True


def _frames(*bodies):
    return b"".join(wire.frame(body) for body in bodies)


def test_frame_cut_into_one_byte_recvs():
    body = b"one frame, dripped"
    sock = _ScriptedSocket(*(bytes([b]) for b in _frames(body)))
    reader = FrameReader(sock)
    assert reader.read() == body
    assert len(sock.asked) == 4 + len(body)
    assert reader.read() is None


def test_second_frame_of_one_recv_needs_no_further_recv():
    sock = _ScriptedSocket(_frames(b"first", b"", b"third"))
    reader = FrameReader(sock)
    assert reader.read() == b"first"
    assert reader.read() == b""
    assert reader.read() == b"third"
    assert sock.asked == [RECV_SIZE]
    assert reader.read() is None
    assert len(sock.asked) == 2


def test_frame_whole_in_one_recv():
    body = b"a whole response"
    sock = _ScriptedSocket(_frames(body))
    reader = FrameReader(sock)
    got = reader.read()
    assert got == body and type(got) is bytes
    assert sock.asked == [RECV_SIZE]
    assert reader.read() is None
    assert sock.asked == [RECV_SIZE, RECV_SIZE]


@pytest.mark.parametrize("tail", [1, 3, 4, 7])
def test_whole_frame_then_the_first_bytes_of_the_next(tail):
    """Mid-prefix (1, 3) and mid-body (4, 7) tails carry over intact."""
    first, second = b"first frame", b"second, longer frame"
    stream = _frames(first, second)
    cut = 4 + len(first) + tail
    sock = _ScriptedSocket(stream[:cut], stream[cut:])
    reader = FrameReader(sock)
    got = reader.read()
    assert got == first and type(got) is bytes
    assert sock.asked == [RECV_SIZE]
    got = reader.read()
    assert got == second and type(got) is bytes
    assert sock.asked == [RECV_SIZE, RECV_SIZE]
    assert reader.read() is None


def test_two_whole_frames_in_one_recv():
    sock = _ScriptedSocket(_frames(b"one", b"two"))
    reader = FrameReader(sock)
    assert reader.read() == b"one"
    got = reader.read()
    assert got == b"two" and type(got) is bytes
    assert sock.asked == [RECV_SIZE]
    assert reader.read() is None


def test_eof_at_frame_boundary_is_none():
    assert FrameReader(_ScriptedSocket()).read() is None
    reader = FrameReader(_ScriptedSocket(_frames(b"last")))
    assert reader.read() == b"last"
    assert reader.read() is None


@pytest.mark.parametrize("cut", [1, 3, 4, 9])
def test_eof_inside_a_frame_is_a_transport_error(cut):
    """Mid-prefix (1, 3) and mid-body (4, 9) EOFs both raise."""
    stream = _frames(b"ten bytes!")
    reader = FrameReader(_ScriptedSocket(stream[:cut]))
    with pytest.raises(TransportError, match="closed mid-frame"):
        reader.read()


def test_eof_after_a_whole_frame_then_a_partial_one_raises():
    reader = FrameReader(_ScriptedSocket(_frames(b"ok") + b"\x00\x00"))
    assert reader.read() == b"ok"
    with pytest.raises(TransportError, match="closed mid-frame"):
        reader.read()


def test_oversized_prefix_is_a_wire_error():
    prefix = (wire.MAX_FRAME + 1).to_bytes(4, "big")
    reader = FrameReader(_ScriptedSocket(prefix + b"x" * 16))
    with pytest.raises(wire.WireError, match="oversized frame"):
        reader.read()
    # A frame at the bound is announced legally (and here cut short).
    at_bound = wire.MAX_FRAME.to_bytes(4, "big")
    reader = FrameReader(_ScriptedSocket(at_bound))
    with pytest.raises(TransportError):
        reader.read()


@pytest.mark.parametrize(
    "size", [0, 1, RECV_SIZE - 4, RECV_SIZE, 3 * RECV_SIZE + 5, 70_000]
)
def test_recv_never_asks_past_what_is_missing_or_4k(size):
    body = bytes(i % 251 for i in range(size))
    stream = _frames(body, b"tail")
    sock = _ScriptedSocket(stream)
    reader = FrameReader(sock)
    assert reader.read() == body
    assert reader.read() == b"tail"
    assert reader.read() is None
    frames = [(0, 4 + size), (4 + size, len(stream))]
    consumed = 0
    for asked in sock.asked:
        start, end = next(
            ((s, e) for s, e in frames if consumed < e),
            (len(stream), len(stream) + 4),
        )
        prefix_left = 4 - (consumed - start)
        missing = prefix_left if prefix_left > 0 else end - consumed
        assert asked <= max(RECV_SIZE, missing)
        assert asked <= RECV_MAX
        consumed = min(len(stream), consumed + asked)
    # Two frames that fit in one buffer take one recv, a larger frame
    # takes a second that asks for exactly its missing bytes, and one
    # past 64 KiB is read in calls of at most 64 KiB.
    if size + 12 <= RECV_SIZE:
        assert sock.asked == [RECV_SIZE, RECV_SIZE]
    elif size == 3 * RECV_SIZE + 5:
        assert sock.asked[:2] == [RECV_SIZE, 4 + size - RECV_SIZE]
    elif size == 70_000:
        assert sock.asked[:3] == [RECV_SIZE, RECV_MAX, RECV_SIZE]


# -- the reader belongs to its socket ------------------------------------------


def _response(request, value):
    return wire.frame(wire.encode_response(request, value))


def test_poisoned_client_never_parses_stale_bytes(monkeypatch):
    """Half a frame, then a timeout: the next response is the new socket's.

    The old socket still holds the other half of its frame (and a
    whole stale frame after it).  A reader carried across the
    reconnect would splice those bytes into the next response.
    """
    request = wire.GetChunk("doc", 3)
    stale = _response(request, b"stale chunk from the old socket")
    half = len(stale) // 2
    old = _ScriptedSocket(
        stale[:half], TimeoutError("timed out"), stale[half:] + stale
    )
    fresh = _ScriptedSocket(_response(request, b"fresh chunk"))
    opened = []

    def open_fresh(address, timeout, wrap):
        opened.append(address)
        return fresh

    monkeypatch.setattr(RemoteDSP, "_open", staticmethod(open_fresh))
    client = RemoteDSP(
        old,
        retry=RetryPolicy(attempts=2, backoff=0.0, jitter=0.0),
        address=("127.0.0.1", 9),
    )
    assert client.get_chunk("doc", 3) == b"fresh chunk"
    assert opened == [("127.0.0.1", 9)]
    assert client.reconnects == 1 and client.retries == 1
    assert old.closed and len(old.asked) == 2
    # The old socket's remaining bytes were never read.
    assert old.script == [stale[half:] + stale]
    assert fresh.sent == old.sent == wire.frame(wire.encode_request(request))
    assert client.requests == 1


def test_poisoned_client_without_retry_refuses_further_use():
    request = wire.GetChunk("doc", 3)
    stale = _response(request, b"stale")
    old = _ScriptedSocket(stale[:3], TimeoutError("timed out"), stale[3:])
    client = RemoteDSP(old)
    with pytest.raises(TransportError, match="DSP connection failed"):
        client.get_chunk("doc", 3)
    with pytest.raises(TransportError, match="unusable"):
        client.get_chunk("doc", 3)
    assert old.closed and len(old.asked) == 2
