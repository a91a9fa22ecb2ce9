"""The DSP's event-loop server: non-blocking, admission-controlled.

A thread per connection with every dispatch serialized behind one
lock is fine for a handful of terminals and hopeless for "millions of
users".  :class:`ReactorDSPServer` is the DSP's one server: one
non-blocking selector loop over the same length-prefixed
:mod:`repro.dsp.wire` codec, so

* a request costs one pass over its bytes: each frame is cut straight
  out of the bytes ``recv`` returned, and only a frame a read ended
  inside waits in the connection's input buffer; a lone response goes
  to ``send`` as it is, and only bytes the kernel refused wait, under
  ``EVENT_WRITE``, in the connection's write queue;
* a slow reader never blocks anyone -- its responses queue in *its*
  write buffer while the loop keeps serving everybody else;
* there is no dispatch lock -- the loop serves its connections
  sequentially, and per-connection accounting
  (:class:`~repro.dsp.remote.ConnectionStats`) and the server totals
  have the loop thread as their one writer;
* read-mostly dissemination traffic is served from the loop's response
  cache (raw request bytes -> framed response, invalidated wholesale
  when the store's :class:`~repro.dsp.freshness.Freshness` stamp
  moves) -- single-writer like everything else the loop owns, which is
  exactly why it can exist without a lock -- and a pipelined batch of
  responses leaves in coalesced sends, one syscall per run of small
  frames;
* over-capacity traffic **fails fast** with a typed
  :class:`~repro.errors.ResourceExhausted` wire frame carrying a
  :class:`~repro.errors.CapacityReport` (scope, limit, current) --
  the 429-with-capacity-report contract -- instead of queueing into
  collapse or hanging silently.

The reactor serves *real* traffic measured in wall time: it reads
documents through the pure fetch helpers in :mod:`repro.dsp.server`
and does **not** drive the owning :class:`DSPServer`'s simulated
network clock or request counters -- those model the simulated
deployments; the reactor's own totals (:attr:`requests`,
:attr:`bytes_served`, :attr:`chunks_served`, rejection counters) are
the operational truth.

:class:`~repro.dsp.remote.RemoteDSP` is the matching client;
``community.serve()`` is the facade-level entry point.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from itertools import islice
from types import TracebackType

from repro.dsp.freshness import UNSTAMPED
from repro.dsp.remote import ConnectionStats
from repro.dsp.server import (
    DSPServer,
    fetch_chunk,
    fetch_chunk_range,
    fetch_header,
    fetch_meta,
    fetch_rules,
    fetch_wrapped_key,
)
from repro.dsp.store import DSPStore
from repro.dsp.wire import (
    MAX_FRAME,
    GetChunk,
    GetChunkRange,
    GetHeader,
    GetMeta,
    GetRules,
    Request,
    WireError,
    decode_request,
    encode_error,
    encode_response,
    frame,
)
from repro.errors import CapacityReport, ResourceExhausted

__all__ = ["AdmissionPolicy", "ReactorDSPServer"]

_U32 = struct.Struct(">I")

#: One recv() per readable socket per loop turn.
_RECV_SIZE = 1 << 18

#: A connection whose write backlog exceeds ``client_backlog`` by this
#: factor is beyond help -- it is not reading even its rejection
#: frames -- and gets disconnected instead of buffered further.
_BACKLOG_HARD_FACTOR = 2

#: Coalesce up to this many bytes of small pending frames into one
#: ``send`` -- a pipelining client's batch of responses costs one
#: syscall, not one per frame.
_COALESCE_BYTES = 1 << 16

#: Response-cache bounds.  Dissemination traffic is
#: read-mostly and narrow (a fleet pulling the same few documents), so
#: the hot set is small; on overflow the oldest entries fall out FIFO.
_CACHE_MAX_ENTRIES = 4096
_CACHE_MAX_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class AdmissionPolicy:
    """Capacity ceilings the reactor enforces, 429-style.

    Every limit rejects with a typed
    :class:`~repro.errors.ResourceExhausted` frame whose
    :class:`~repro.errors.CapacityReport` names the exhausted scope and
    the numbers behind the decision -- never a silent hang:

    * ``max_connections`` -- concurrent connections across the server;
      connection number ``max+1`` receives one rejection frame and is
      closed.
    * ``client_inflight`` -- responses queued (accepted but not yet
      fully written) per connection; caps how far a client may
      pipeline ahead of its own reading.
    * ``client_backlog`` -- bytes of unflushed responses per
      connection; the slow-reader bound.  A connection still sending
      requests at ``2x`` this backlog is dropped outright.
    * ``server_inflight`` -- responses queued across *all*
      connections; the global memory bound.

    ``sndbuf`` caps the kernel send buffer (``SO_SNDBUF``) per
    connection.  The backlog limits above measure the *userspace*
    queue, and on loopback the kernel will happily autotune its own
    buffer to megabytes -- hiding a lagging client from admission
    control entirely.  Bounding it keeps the visible backlog an honest
    measure of how far behind the peer really is.  ``None`` leaves the
    kernel default.
    """

    max_connections: int = 512
    client_inflight: int = 32
    client_backlog: int = 8 * 1024 * 1024
    server_inflight: int = 4096
    sndbuf: int | None = None


class _Connection:
    """One buffered non-blocking connection, owned by the loop thread."""

    __slots__ = (
        "sock",
        "stats",
        "inbuf",
        "pending",
        "head_sent",
        "pending_bytes",
        "last_activity",
        "wants_write",
    )

    def __init__(self, sock: socket.socket, stats: ConnectionStats) -> None:
        self.sock = sock
        self.stats = stats
        #: The start of a frame the last read ended inside, if any.
        self.inbuf = bytearray()
        #: Whole outbound frames awaiting the socket; ``head_sent``
        #: bytes of the head frame are already on the wire.
        self.pending: deque[bytes] = deque()
        self.head_sent = 0
        self.pending_bytes = 0
        self.last_activity = time.monotonic()
        self.wants_write = False


class ReactorDSPServer:
    """Serves one DSP over TCP from one selector event loop.

    Speaks the :mod:`repro.dsp.wire` protocol that
    :class:`~repro.dsp.remote.RemoteDSP` and ``Community.attach``
    consume; :attr:`address`, :attr:`connections` and ``close()`` are
    its operational surface.  What matters under load:

    * connections are multiplexed, not threaded -- hundreds of clients
      cost one loop thread, and a reader that stops draining its
      socket only grows *its own* write buffer;
    * :class:`AdmissionPolicy` limits are enforced per request with
      typed rejection frames;
    * ``idle_timeout`` reaps connections with no traffic in either
      direction.

    The counters (:attr:`requests`, :attr:`bytes_served`,
    :attr:`chunks_served`, :attr:`rejected_requests`,
    :attr:`cache_hits`, :attr:`rejected_connections`,
    :attr:`reaped_connections`) are written by the loop thread only;
    other threads just read them.
    """

    def __init__(
        self,
        dsp: DSPServer,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
        *,
        admission: AdmissionPolicy | None = None,
        idle_timeout: float | None = None,
    ) -> None:
        self.dsp = dsp
        self.store: DSPStore = dsp.store
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.idle_timeout = idle_timeout
        self._listener = socket.create_server(
            (host, port), backlog=backlog
        )
        self._listener.setblocking(False)
        bound = self._listener.getsockname()
        self.address: tuple[str, int] = (str(bound[0]), int(bound[1]))
        #: Accept-ordered stats for every connection ever admitted.
        self.connections: list[ConnectionStats] = []
        self.requests = 0
        self.bytes_served = 0
        self.chunks_served = 0
        #: Requests refused by admission control with a typed frame.
        self.rejected_requests = 0
        #: Requests served straight from the response cache.
        self.cache_hits = 0
        self.rejected_connections = 0
        #: Connections closed by the idle-timeout reaper.
        self.reaped_connections = 0
        self._conns: set[_Connection] = set()
        #: Responses queued across every connection.
        self._inflight = 0
        # The response cache: raw request body -> (framed response,
        # chunks it carries).  Only the loop thread touches it, so it
        # needs no lock -- the structural payoff of the reactor shape.
        # Invalidated wholesale whenever the store's stamp moves.
        # Cached responses carry no versions, so they are checked by
        # stamp alone.
        self._cache: dict[bytes, tuple[bytes, int]] = {}
        self._cache_bytes = 0
        self._cache_stamp = UNSTAMPED
        self._closed = False
        self._selector = selectors.DefaultSelector()
        # ``close()`` wakes a loop blocked in ``select`` through this pair.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._drain_wake)
        self._selector.register(self._listener, selectors.EVENT_READ, self._accept_ready)
        self._thread = threading.Thread(
            target=self._run, name=f"dsp-reactor-{self.address[1]}", daemon=True
        )
        self._thread.start()

    # -- loop body ---------------------------------------------------------

    def _run(self) -> None:
        idle = self.idle_timeout
        timeout = None if idle is None else max(0.05, idle / 4)
        try:
            while True:
                for key, events in self._selector.select(timeout):
                    conn = key.data
                    if not isinstance(conn, _Connection):
                        conn()  # the wake pipe or the listener
                        continue
                    if events & selectors.EVENT_WRITE:
                        self._writable(conn)
                    if events & selectors.EVENT_READ:
                        self._readable(conn)
                if self._closed:
                    return
                if idle is not None:
                    self._reap_idle(idle)
        finally:
            for conn in list(self._conns):
                self._close_conn(conn)
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # listener closed
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self.admission.sndbuf is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_SNDBUF,
                        self.admission.sndbuf,
                    )
            except OSError:
                pass
            open_now = self._open_connections()
            if open_now >= self.admission.max_connections:
                self._reject_connection(sock, open_now)
                continue
            stats = ConnectionStats(peer=f"{peer[0]}:{peer[1]}")
            self.connections.append(stats)
            conn = _Connection(sock, stats)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _reject_connection(self, sock: socket.socket, current: int) -> None:
        """One typed rejection frame, best effort, then the door."""
        self.rejected_connections += 1
        rejection = ResourceExhausted(
            "server connection capacity reached",
            capacity=CapacityReport(
                "connections", self.admission.max_connections, current
            ),
        )
        try:
            sock.send(frame(encode_error(rejection)))
        except OSError:
            pass
        sock.close()

    def _open_connections(self) -> int:
        return len(self._conns)

    def _reap_idle(self, idle: float) -> None:
        now = time.monotonic()
        for conn in [c for c in self._conns if now - c.last_activity > idle]:
            self.reaped_connections += 1
            self._close_conn(conn)

    def _close_conn(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        self._inflight -= len(conn.pending)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        conn.pending.clear()
        conn.pending_bytes = 0
        conn.stats.open = False

    # -- reading and dispatch ----------------------------------------------

    def _readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.last_activity = time.monotonic()
        buf = conn.inbuf
        if buf:
            # The last read ended inside a frame.  A whole prefix passed
            # the MAX_FRAME check then, so append until the frame is
            # complete instead of copying the held bytes on every read.
            held = len(buf)
            buf += data
            if held >= 4 and len(buf) < 4 + _U32.unpack_from(buf)[0]:
                return
            data = bytes(buf)
            buf.clear()
        self._drain_frames(conn, data)

    def _drain_frames(self, conn: _Connection, data: bytes) -> bool:
        """Serve every complete frame in ``data``, one read's bytes.

        Frame bodies are cut straight out of ``data``; only an
        unfinished last frame is kept, in ``conn.inbuf``.  Returns
        ``False`` if the connection was closed (protocol violation or
        hard backlog overflow).
        """
        offset = 0
        size = len(data)
        while size - offset >= 4:
            (length,) = _U32.unpack_from(data, offset)
            if length > MAX_FRAME:
                # A hostile length prefix: drop the connection;
                # nothing sensible can follow it on the stream.
                self._close_conn(conn)
                return False
            end = offset + 4 + length
            if end > size:
                break
            body = data[offset + 4:end]
            offset = end
            if not self._serve_frame(conn, body):
                self._close_conn(conn)
                return False
            if conn not in self._conns:
                # A write error closed the connection mid-batch;
                # the remaining frames died with it.
                return False
        if offset < size:
            conn.inbuf += data[offset:]
        # One flush per batch: a pipelined burst of responses leaves in
        # coalesced sends, and anything the kernel refuses stays queued
        # under EVENT_WRITE.
        if conn.pending:
            self._writable(conn)
        return True

    def _serve_frame(self, conn: _Connection, body: bytes) -> bool:
        stats = conn.stats
        stats.requests += 1
        stats.bytes_in += 4 + len(body)
        self.requests += 1
        stamp = self.store.stamp
        if stamp is not self._cache_stamp and not self._cache_stamp.same_stamp(stamp):
            self._cache.clear()
            self._cache_bytes = 0
            self._cache_stamp = stamp
        cached = self._cache.get(body)
        if cached is None:
            try:
                request = decode_request(body)
            except WireError as exc:
                stats.errors += 1
                self._queue(conn, frame(encode_error(exc)))
                return True
        rejection = self._admit(conn)
        if rejection is not None:
            self.rejected_requests += 1
            stats.errors += 1
            if conn.pending_bytes >= (
                self.admission.client_backlog * _BACKLOG_HARD_FACTOR
            ):
                return False  # not even reading its rejections: drop it
            self._queue(conn, frame(encode_error(rejection)))
            return True
        if cached is not None:
            # The fast path: a request these exact bytes already
            # answered under this store stamp -- no decode, no
            # fetch, no encode, no copy.
            framed, chunks = cached
            self.cache_hits += 1
            self.chunks_served += chunks
            self._queue(conn, framed)
        else:
            chunks = 0
            try:
                value = self._execute(request)
                response = encode_response(request, value)
                if isinstance(request, GetChunk):
                    chunks = 1
                elif isinstance(request, GetChunkRange):
                    assert isinstance(value, list)
                    chunks = len(value)
                self.chunks_served += chunks
                framed = frame(response)
                self._cache_put(body, framed, chunks)
            except Exception as exc:  # typed errors travel; nothing escapes
                stats.errors += 1
                framed = frame(encode_error(exc))
            self._queue(conn, framed)
        # Flush early once a batch's responses pass the coalesce
        # threshold; the per-batch flush in ``_drain_frames`` handles
        # the tail.  In-flight counts therefore measure genuine
        # backpressure plus at most one batch still being assembled.
        if conn.pending_bytes >= _COALESCE_BYTES:
            self._writable(conn)
        return True

    def _cache_put(self, body: bytes, framed: bytes, chunks: int) -> None:
        if len(framed) > _CACHE_MAX_BYTES // 8:
            return  # one giant response must not own the cache
        self._cache[body] = (framed, chunks)
        self._cache_bytes += len(framed)
        while (
            len(self._cache) > _CACHE_MAX_ENTRIES
            or self._cache_bytes > _CACHE_MAX_BYTES
        ):
            oldest, (evicted, _) = next(iter(self._cache.items()))
            del self._cache[oldest]
            self._cache_bytes -= len(evicted)

    def _admit(self, conn: _Connection) -> ResourceExhausted | None:
        policy = self.admission
        if len(conn.pending) >= policy.client_inflight:
            return ResourceExhausted(
                "client has too many responses in flight",
                capacity=CapacityReport(
                    "client-inflight", policy.client_inflight, len(conn.pending)
                ),
            )
        if conn.pending_bytes >= policy.client_backlog:
            return ResourceExhausted(
                "client is reading too slowly for its request rate",
                capacity=CapacityReport(
                    "client-backlog", policy.client_backlog, conn.pending_bytes
                ),
            )
        if self._inflight >= policy.server_inflight:
            return ResourceExhausted(
                "server is at capacity",
                capacity=CapacityReport(
                    "server-inflight", policy.server_inflight, self._inflight
                ),
            )
        return None

    def _execute(self, request: Request) -> object:
        store = self.store
        if isinstance(request, GetHeader):
            return fetch_header(store, request.doc_id)
        if isinstance(request, GetChunk):
            return fetch_chunk(store, request.doc_id, request.index)
        if isinstance(request, GetChunkRange):
            return fetch_chunk_range(
                store, request.doc_id, request.start, request.count
            )
        if isinstance(request, GetRules):
            return fetch_rules(store, request.doc_id)
        if isinstance(request, GetMeta):
            # Safe to response-cache like any other success: the
            # stamp rides *inside* the payload and the response cache
            # is dropped wholesale whenever the stamp moves.
            return fetch_meta(store, request.doc_id, request.subject)
        return fetch_wrapped_key(store, request.doc_id, request.recipient)

    # -- writing ------------------------------------------------------------

    def _queue(self, conn: _Connection, framed: bytes) -> None:
        size = len(framed)
        conn.pending.append(framed)
        conn.pending_bytes += size
        conn.stats.bytes_out += size
        self.bytes_served += size
        self._inflight += 1

    def _writable(self, conn: _Connection) -> None:
        pending = conn.pending
        try:
            while pending:
                head = pending[0]
                payload: bytes | memoryview = head
                if conn.head_sent:
                    payload = memoryview(head)[conn.head_sent:]
                if len(pending) > 1 and len(payload) < _COALESCE_BYTES:
                    # Join a run of small frames so a pipelined batch
                    # goes out in one syscall.
                    parts = [payload]
                    size = len(payload)
                    for nxt in islice(pending, 1, None):
                        if size >= _COALESCE_BYTES:
                            break
                        parts.append(nxt)
                        size += len(nxt)
                    payload = b"".join(parts)
                sent = conn.sock.send(payload)
                if sent == 0:
                    break
                conn.pending_bytes -= sent
                conn.last_activity = time.monotonic()
                # Retire every frame the send finished; what it left of
                # the new head is that frame's progress.
                sent += conn.head_sent
                while pending and sent >= len(pending[0]):
                    sent -= len(pending.popleft())
                    self._inflight -= 1
                conn.head_sent = sent
                if sent:
                    break  # the kernel refused the rest: wait for EVENT_WRITE
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._close_conn(conn)
            return
        wants_write = bool(conn.pending)
        if wants_write != conn.wants_write:
            conn.wants_write = wants_write
            events = selectors.EVENT_READ
            if wants_write:
                events |= selectors.EVENT_WRITE
            try:
                self._selector.modify(conn.sock, events, conn)
            except (KeyError, ValueError):
                pass

    @property
    def cache_entries(self) -> int:
        """Entries in the response cache."""
        return len(self._cache)

    def validate_caches(self) -> list[str]:
        """Audit the response cache; returns problem strings.

        An empty list means every cached entry is a *complete*,
        well-framed success response whose key decodes back to a
        request of the matching opcode.  The cache is filled before a
        response ever touches a socket and holds immutable ``bytes``,
        so no client-side event -- mid-frame disconnect during a
        coalesced write run included -- may ever tear an entry; the
        chaos suite forces exactly those disconnects and asserts this
        stays empty.  Snapshots loop-owned state without locks, so run
        it on a quiesced or steady server.
        """
        problems: list[str] = []
        for body, (framed, chunks) in list(self._cache.items()):
            if len(framed) < 5:
                problems.append(
                    f"entry smaller than a frame header ({len(framed)} B)"
                )
                continue
            (length,) = _U32.unpack_from(framed, 0)
            if length != len(framed) - 4:
                problems.append(
                    f"torn entry -- prefix says {length} B, "
                    f"{len(framed) - 4} B stored"
                )
                continue
            op = framed[4]
            if op == 0x7F or not op & 0x80:
                problems.append(f"non-success opcode 0x{op:02x} cached")
                continue
            try:
                decode_request(body)
            except WireError:
                problems.append("cache key is not a decodable request")
                continue
            if (op & 0x7F) != body[0]:
                problems.append(
                    f"response opcode 0x{op & 0x7F:02x} does not answer "
                    f"request opcode 0x{body[0]:02x}"
                )
                continue
            if chunks < 0:
                problems.append("negative chunk count")
        return problems

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop the loop and tear down every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._listener.close()
        try:
            self._wake_w.send(b"\x00")
        except OSError:
            pass
        self._thread.join(timeout=5)

    def __enter__(self) -> "ReactorDSPServer":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
