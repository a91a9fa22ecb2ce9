"""The DSP's network client and the wire plumbing shared with the server.

:class:`RemoteDSP` is the :class:`~repro.dsp.client.DSPClient` that
talks to a DSP served by :class:`~repro.dsp.reactor.ReactorDSPServer`:
it connects, sends one frame per request and decodes the response,
re-raising the server's typed errors.  Many terminals in separate
processes can each hold one and pull from the same durable DSP
concurrently.  A request costs one pass over its bytes: the request
frame is packed in one piece, and :class:`FrameReader` cuts the
response straight out of the bytes ``recv`` returned.  The connection
timeout is the kernel's (``SO_RCVTIMEO``/``SO_SNDTIMEO`` on a blocking
socket), so a request pays no ``poll()`` before its ``send`` and its
``recv``.  The module also holds the length-prefixed frame helpers and
the per-connection :class:`ConnectionStats` the server keeps.

Typical wiring (see ``Community.serve`` / ``Community.attach``)::

    # process A -- owns the store
    server = community.serve()             # 127.0.0.1, ephemeral port
    print(server.address)

    # process B..N -- readers
    with RemoteDSP.connect(address) as dsp:
        readers = Community.attach(dsp)
        ...
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Protocol

from repro.crypto.container import DocumentHeader
from repro.dsp.wire import (
    MAX_FRAME,
    DocMeta,
    GetChunk,
    GetChunkRange,
    GetHeader,
    GetMeta,
    GetRules,
    GetWrappedKey,
    Request,
    WireError,
    decode_response,
    encode_request,
    frame,
)
from repro.errors import ResourceExhausted, TransportError
from repro.smartcard.resources import SimClock

__all__ = [
    "ConnectionStats",
    "FrameReader",
    "GenerationChanged",
    "RemoteDSP",
    "RetryPolicy",
    "SocketLike",
]

_U32 = struct.Struct(">I")
#: ``struct timeval`` for ``SO_RCVTIMEO`` / ``SO_SNDTIMEO``.
_TIMEVAL = struct.Struct("@ll")


class SocketLike(Protocol):
    """The slice of the socket surface the DSP client actually uses.

    ``socket.socket`` satisfies it structurally; so does a chaos
    wrapper (``repro.chaos.faults.FaultySocket``) injected through
    ``RemoteDSP.connect(..., socket_wrapper=...)``.
    """

    def sendall(self, data: bytes, /) -> None: ...

    def recv(self, bufsize: int, /) -> bytes: ...

    def settimeout(self, value: float | None, /) -> None: ...

    def close(self) -> None: ...


#: ``recv`` bounds: a 4 KiB floor (64 KiB per response grew client RSS)
#: and a 64 KiB cap (``recv(n)`` allocates ``n`` bytes before it returns).
RECV_SIZE, RECV_MAX = 4096, 1 << 16


def _frame_end(data: bytes | bytearray) -> int:
    """Prefix plus body of the frame ``data`` starts with; 0 while
    fewer than 4 bytes are there to say."""
    if len(data) < 4:
        return 0
    length: int = _U32.unpack_from(data)[0]
    if length > MAX_FRAME:
        raise WireError(f"peer announced an oversized frame ({length} B)")
    return 4 + length


class FrameReader:
    """Length-prefixed frame bodies off one socket.

    ``recv`` asks for the bytes still missing, at least ``RECV_SIZE``
    and at most ``RECV_MAX``, so a frame under 4 KiB costs one call and
    a large one is read in 64 KiB calls.  A frame that one ``recv``
    returned whole is cut straight out of it; only a frame that spans
    reads, and bytes read past a frame (a peer that pipelines), go
    through the buffer, which is kept for the next :meth:`read`, so a
    reader lives and dies with its socket.
    """

    __slots__ = ("_sock", "_buf")

    def __init__(self, sock: SocketLike) -> None:
        self._sock = sock
        self._buf = bytearray()

    def read(self) -> bytes | None:
        """One frame body, or ``None`` on EOF at a frame boundary."""
        buf = self._buf
        if not buf:
            data = self._sock.recv(RECV_SIZE)
            if not data:
                return None
            end = _frame_end(data)
            if end and len(data) >= end:
                if len(data) > end:
                    buf += data[end:]
                return data[4:end]
            buf += data
        end = _frame_end(buf)
        while not end or len(buf) < end:
            chunk = self._sock.recv(
                max(RECV_SIZE, min(RECV_MAX, (end or 4) - len(buf)))
            )
            if not chunk:
                raise TransportError("DSP connection closed mid-frame")
            buf += chunk
            end = end or _frame_end(buf)
        body = bytes(buf[4:end])
        del buf[:end]
        return body


def write_frame(sock: SocketLike, body: bytes) -> None:
    sock.sendall(frame(body))


class GenerationChanged(TransportError):
    """A retried pull crossed a republish: the document moved versions.

    Raised (instead of silently resuming) when a reconnect-and-resume
    discovers the stored document's version is no longer the one the
    in-flight pull started under.  Splicing chunks from two versions
    would be caught by the card's chunk MACs anyway -- this surfaces
    the situation *before* tainted bytes reach the card, so the caller
    can simply restart the pull against the new version.  Never
    retried.
    """


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter for ``RemoteDSP``.

    ``attempts`` caps total tries per request (first try included).
    The ``n``-th retry sleeps ``backoff * multiplier**n``, shrunk by up
    to ``jitter`` (a 0..1 fraction) so a fleet of readers retrying the
    same hiccup does not stampede in phase; ``seed`` makes the jitter
    deterministic for tests.  ``deadline`` bounds the *whole* request
    -- connect, retries and socket waits included -- and overruns
    surface as :class:`~repro.errors.TransportError`, never a silent
    hang.

    What retries: transport failures (the client reconnects first) and
    :class:`~repro.errors.ResourceExhausted` rejection frames (the
    admission-control 429 -- backoff only, the connection is fine).
    What never retries: every other typed error
    (``UnknownDocument``, ``KeyNotGranted``, ...) -- those are
    answers, not failures -- and :class:`GenerationChanged`.
    """

    attempts: int = 4
    backoff: float = 0.02
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 10.0
    seed: int | None = None

    def delay(self, retry_index: int) -> float:
        """Sleep before the ``retry_index``-th retry (zero-based)."""
        base = self.backoff * (self.multiplier ** retry_index)
        if self.jitter <= 0:
            return base
        if self.seed is None:
            fraction = random.random()
        else:
            fraction = random.Random(f"retry|{self.seed}|{retry_index}").random()
        return base * (1.0 - self.jitter * fraction)


@dataclass(slots=True)
class ConnectionStats:
    """Per-connection accounting on the served side."""

    peer: str
    requests: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    open: bool = True


class RemoteDSP:
    """A :class:`~repro.dsp.client.DSPClient` over one TCP connection.

    One frame out, one frame in, per request; a lock serializes
    requests so one handle may be shared, though the intended shape is
    one ``RemoteDSP`` per terminal process.  Wire-carried typed errors
    re-raise exactly as the in-process server would have raised them.
    The ``clock`` is this client's own
    :class:`~repro.smartcard.resources.SimClock`: the *served* DSP
    charges its network model on its side, while the terminal charges
    card/link time locally.

    Without a :class:`RetryPolicy` the handle keeps its historical
    fail-fast shape: the first transport failure poisons it for good.
    With one (``RemoteDSP.connect(..., retry=RetryPolicy())``) it
    self-heals: transport failures reconnect and retry with
    exponential backoff + jitter, admission-control
    :class:`~repro.errors.ResourceExhausted` rejections back off on
    the live connection, and a per-request ``deadline`` bounds the
    whole affair as a :class:`~repro.errors.TransportError`.  Resumed
    chunk pulls are guarded by the header's version: if the document
    was republished while the pull was down, the retry raises
    :class:`GenerationChanged` rather than splice two versions.
    """

    def __init__(
        self,
        sock: SocketLike,
        clock: SimClock | None = None,
        *,
        retry: RetryPolicy | None = None,
        address: tuple[str, int] | None = None,
        timeout: float | None = None,
        socket_wrapper: "Callable[[socket.socket], SocketLike] | None" = None,
    ) -> None:
        self._sock = sock
        self._reader = FrameReader(sock)
        self._lock = threading.Lock()
        self._broken: str | None = None
        self.retry = retry
        self._address = address
        self._timeout = timeout
        self._wrap = socket_wrapper
        #: Document versions observed via ``get_header`` on this handle
        #: -- the reconnect-and-resume guard's memory.
        self._doc_versions: dict[str, int] = {}
        self.clock = clock if clock is not None else SimClock()
        self.requests = 0
        self.bytes_received = 0
        self.retries = 0
        self.reconnects = 0

    @classmethod
    def connect(
        cls,
        address: tuple[str, int],
        timeout: float | None = 10.0,
        clock: SimClock | None = None,
        *,
        retry: RetryPolicy | None = None,
        socket_wrapper: "Callable[[socket.socket], SocketLike] | None" = None,
    ) -> "RemoteDSP":
        """Open a connection to a served DSP.

        ``timeout`` bounds each socket wait, and an expired one raises
        :class:`~repro.errors.TransportError` and poisons the handle.
        The kernel enforces it (``SO_RCVTIMEO``/``SO_SNDTIMEO``), not
        CPython's timeout mode, which polls before every ``send`` and
        ``recv``; a :class:`RetryPolicy` deadline still narrows it per
        request through ``settimeout``.
        ``retry`` turns on the resilience layer (see the class doc).
        ``socket_wrapper`` interposes on every socket the handle ever
        opens -- the initial connection *and* each reconnect -- which
        is how the chaos engine injects transport faults under a
        self-healing client.
        """
        sock = cls._open(address, timeout, socket_wrapper)
        return cls(
            sock,
            clock=clock,
            retry=retry,
            address=address,
            timeout=timeout,
            socket_wrapper=socket_wrapper,
        )

    @staticmethod
    def _open(
        address: tuple[str, int],
        timeout: float | None,
        wrap: "Callable[[socket.socket], SocketLike] | None",
    ) -> SocketLike:
        try:
            sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach DSP at {address[0]}:{address[1]}: {exc}"
            ) from exc
        # A blocking socket whose timeout the kernel enforces: in
        # CPython's own timeout mode every send and recv pays a poll()
        # first.  An expired wait raises BlockingIOError.
        sock.settimeout(None)
        if timeout is not None:
            seconds, micros = divmod(max(1, round(timeout * 1e6)), 1_000_000)
            limit = _TIMEVAL.pack(seconds, micros)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
        return sock if wrap is None else wrap(sock)

    def _poison(self, reason: str) -> None:
        """Mark the connection unusable and drop the socket.

        After a timeout or mid-frame failure the stream and the reader's
        buffer may still hold a stale response; reading it would answer
        the *next* request with the previous payload, so the handle
        refuses all further use instead.  With a retry policy, ``_call``
        reconnects a fresh socket and reader before the next attempt.
        """
        self._broken = reason
        self._sock.close()

    def _reconnect(self, request: Request) -> None:
        """Replace the poisoned socket and re-validate the pull's world."""
        if self._address is None:
            raise TransportError(
                f"DSP connection is unusable ({self._broken}) and this "
                "handle has no address to reconnect to"
            )
        fresh = self._open(self._address, self._timeout, self._wrap)
        with self._lock:
            self._sock.close()
            self._sock = fresh
            self._reader = FrameReader(fresh)
            self._broken = None
        self.reconnects += 1
        self._guard_generation(request)

    def _guard_generation(self, request: Request) -> None:
        """Refuse to resume a chunk pull across a republish.

        Chunk MACs bind ``(doc_id, version, index)``, so a splice of
        two versions would die at the card as ``TamperDetected``; this
        check turns it into an actionable :class:`GenerationChanged`
        before any tainted byte is fetched.
        """
        if not isinstance(request, (GetChunk, GetChunkRange)):
            return
        known = self._doc_versions.get(request.doc_id)
        if known is None:
            return
        header = self._exchange(GetHeader(request.doc_id))
        assert isinstance(header, DocumentHeader)
        if header.version != known:
            raise GenerationChanged(
                f"document {request.doc_id!r} moved from version {known} "
                f"to {header.version} while the pull was interrupted; "
                "restart the pull against the new version",
                doc_id=request.doc_id,
            )

    def _exchange(
        self, request: Request, deadline: float | None = None
    ) -> object:
        with self._lock:
            if self._broken is not None:
                raise TransportError(
                    f"DSP connection is unusable ({self._broken}); "
                    "reconnect with RemoteDSP.connect"
                )
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TransportError(
                        "request deadline exhausted before the request "
                        "could be sent"
                    )
                limit = (
                    budget
                    if self._timeout is None
                    else min(self._timeout, budget)
                )
                try:
                    self._sock.settimeout(max(0.001, limit))
                except OSError:
                    pass
            try:
                self._sock.sendall(frame(encode_request(request)))
                body = self._reader.read()
            except (OSError, TransportError, WireError) as exc:
                # A kernel timeout (see ``_open``) surfaces as EAGAIN.
                reason = "timed out" if isinstance(exc, BlockingIOError) else str(exc)
                self._poison(reason)
                raise TransportError(
                    f"DSP connection failed: {reason}"
                ) from exc
            self.requests += 1
            if body is None:
                self._poison("server closed the connection")
                raise TransportError("DSP closed the connection")
            self.bytes_received += len(body)
            try:
                value = decode_response(request, body)
            except WireError as exc:
                # An undecodable response means the stream can no
                # longer be trusted to be frame-aligned.
                self._poison(f"undecodable response: {exc}")
                raise TransportError(
                    f"DSP sent an undecodable response: {exc}"
                ) from exc
        if isinstance(request, GetHeader) and isinstance(value, DocumentHeader):
            self._doc_versions[request.doc_id] = value.version
        return value

    def _call(self, request: Request) -> object:
        policy = self.retry
        if policy is None:
            return self._exchange(request)
        deadline = (
            None
            if policy.deadline is None
            else time.monotonic() + policy.deadline
        )
        attempt = 0
        while True:
            try:
                if self._broken is not None:
                    self._reconnect(request)
                return self._exchange(request, deadline)
            except GenerationChanged:
                raise
            except (TransportError, ResourceExhausted) as exc:
                attempt += 1
                if attempt >= policy.attempts:
                    raise
                delay = policy.delay(attempt - 1)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportError(
                            f"deadline of {policy.deadline:g}s exceeded "
                            f"after {attempt} attempts: {exc}"
                        ) from exc
                    delay = min(delay, remaining)
                if delay > 0:
                    time.sleep(delay)
                self.retries += 1

    # -- DSPClient --------------------------------------------------------

    def get_header(self, doc_id: str) -> DocumentHeader:
        value = self._call(GetHeader(doc_id))
        assert isinstance(value, DocumentHeader)
        return value

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        value = self._call(GetChunk(doc_id, index))
        assert isinstance(value, bytes)
        return value

    def get_chunk_range(
        self, doc_id: str, start: int, count: int
    ) -> list[bytes]:
        value = self._call(GetChunkRange(doc_id, start, count))
        assert isinstance(value, list)
        return value

    def get_rules(self, doc_id: str) -> tuple[int, list[bytes]]:
        value = self._call(GetRules(doc_id))
        assert isinstance(value, tuple)
        return value

    def get_wrapped_key(self, doc_id: str, recipient: str) -> bytes:
        value = self._call(GetWrappedKey(doc_id, recipient))
        assert isinstance(value, bytes)
        return value

    def get_meta(self, doc_id: str, subject: str) -> DocMeta:
        value = self._call(GetMeta(doc_id, subject))
        assert isinstance(value, DocMeta)
        return value

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "RemoteDSP":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
