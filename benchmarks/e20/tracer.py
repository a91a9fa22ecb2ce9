"""Spans and counters for E20's traced runs, recorded from outside ``src/``.

:func:`instrument` swaps a fixed set of public entry points -- one or
a few per layer -- for wrappers that report to a :class:`Tracer`, and
returns a function restoring the originals.  Nothing inside ``src/``
is edited; an untraced run executes the pristine code.

Two kinds of wrapper:

* a **span** wraps a call that happens a few hundred times per
  operation or less (an APDU, a DSP request, a feed method).  It
  records name, layer, start, duration and the span that caused it.
* a **leaf** wraps a per-event call (``next_item``, ``feed``,
  ``write_string``).  It is timed and counted, and its time is charged
  to its layer and subtracted from the enclosing span, but it leaves no
  span record, so one operation stays under about a thousand spans.

A layer's **self time** is the time its spans cover minus the part
their child spans and leaves cover.  Every operation runs under a root
span of layer ``other``, whose self time is what no instrumented layer
claims (facade glue and the benchmark's own loop).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

_now = time.perf_counter

#: Span records kept for the JSON trace; counting goes on past it.
MAX_SPANS = 50_000


class OpTrace:
    """What one operation did, layer by layer (raw, uncalibrated)."""

    __slots__ = ("index", "self_s", "counts")

    def __init__(self, index: int) -> None:
        self.index = index
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)


class _Span:
    __slots__ = ("name", "layer", "start", "child")

    def __init__(self, name: str, layer: str, start: float) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0


class _State:
    def __init__(self) -> None:
        self.op: OpTrace | None = None
        self.stack: list[_Span] = []
        self.in_leaf = False


class _ThreadState(_State, threading.local):
    """One :class:`_State` per thread (initialized on first use)."""


class Tracer:
    """Collects spans and per-layer self time for the current operation.

    With ``threaded=True`` the state is per thread, so concurrent
    clients each trace their own operations (at about 300 ns more per
    wrapped call).  ``spans`` holds finished span records as tuples
    ``(op_index, thread, name, layer, start_s, duration_s, self_s)``.

    The wrappers' own cost is measured once, at construction, and each
    wrapped call moves that estimate from its parent's self time to the
    ``trace`` layer, so tracing does not inflate the layers above the
    per-event calls.
    """

    def __init__(self, threaded: bool = False) -> None:
        self._state: _State = _ThreadState() if threaded else _State()
        self._lock = threading.Lock()
        self._ops = 0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.leaf_cost = 0.0
        self.span_cost = 0.0
        self._base_costs = self._wrapper_costs()
        self.leaf_cost, self.span_cost = self._base_costs

    def scale_costs(self, slowdown: float) -> None:
        """Rescale the wrapper-cost estimates to the machine's current
        speed (probe now / probe when measured); applies to wrappers
        created afterwards."""
        self.leaf_cost = self._base_costs[0] * slowdown
        self.span_cost = self._base_costs[1] * slowdown

    def _wrapper_costs(self, calls: int = 2000, rounds: int = 5) -> tuple[float, float]:
        """Seconds a leaf and a span wrapper add to one call (best of rounds)."""

        def noop(value: int) -> int:
            return value

        best = {"bare": float("inf"), "leaf": float("inf"), "span": float("inf")}
        wrapped = {"bare": noop, "leaf": self.leaf(noop, "trace"), "span": self.span(noop, "noop", "trace")}
        for _ in range(rounds):
            for kind, fn in wrapped.items():
                self.begin_op()
                started = _now()
                for value in range(calls):
                    fn(value)
                best[kind] = min(best[kind], (_now() - started) / calls)
                self.end_op()
        self.spans.clear()
        self._ops = 0
        return max(0.0, best["leaf"] - best["bare"]), max(0.0, best["span"] - best["bare"])

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        state = self._state
        with self._lock:
            index = self._ops
            self._ops += 1
        state.op = OpTrace(index)
        state.stack = [_Span("op", "other", _now())]
        state.in_leaf = False

    def end_op(self) -> OpTrace:
        state = self._state
        op = state.op
        if op is None or len(state.stack) != 1:
            raise RuntimeError("end_op without a matching begin_op")
        self._close(op, state.stack, state.stack.pop(), _now())
        state.op = None
        return op

    # -- spans ------------------------------------------------------------

    def enter(self, name: str, layer: str) -> _Span | None:
        """Open a span; ``None`` outside an operation or inside a leaf."""
        state = self._state
        if state.op is None or state.in_leaf:
            return None
        span = _Span(name, layer, _now())
        state.stack.append(span)
        return span

    def exit(self, span: _Span | None) -> None:
        if span is None:
            return
        end = _now()
        state = self._state
        stack = state.stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        assert state.op is not None
        self._close(state.op, stack, span, end)

    def _close(self, op: OpTrace, stack: list[_Span], span: _Span, end: float) -> None:
        duration = end - span.start
        own = duration - span.child
        op.self_s[span.layer] += own
        op.counts["calls:" + span.layer] += 1
        if stack:
            cost = self.span_cost
            stack[-1].child += duration + cost
            op.self_s["trace"] += cost
        if len(self.spans) < MAX_SPANS:
            self.spans.append((
                op.index, threading.get_ident(), span.name, span.layer,
                span.start, duration, own,
            ))
        else:
            self.dropped_spans += 1

    def count(self, key: str, value: float = 1) -> None:
        op = self._state.op
        if op is not None:
            op.counts[key] += value

    # -- wrappers ---------------------------------------------------------
    #
    # ``after(counts, args, result)`` hooks add to the operation's
    # counters; they run only inside an operation.

    def span(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a span."""
        state = self._state
        close = self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            op = state.op
            if op is None or state.in_leaf:
                return fn(*args, **kwargs)
            span = _Span(name, layer, _now())
            stack = state.stack
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                close(op, stack, span, end)
            if after is not None:
                after(op.counts, args, result)
            return result

        return wrapper

    def generator_span(
        self,
        fn: Callable[..., Any],
        name: str,
        layer: str,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap a generator function: each resumption is one span.

        ``after(counts, args, kwargs)`` runs once, on exhaustion.
        """
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    span = tracer.enter(name, layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.exit(span)
                        break
                    except BaseException:
                        tracer.exit(span)
                        raise
                    tracer.exit(span)
                    yield item
            finally:
                inner.close()
            op = tracer._state.op
            if after is not None and op is not None:
                after(op.counts, args, kwargs)

        return wrapper

    def leaf(
        self,
        fn: Callable[..., Any],
        layer: str,
        after: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap a per-event call: timed and counted, no span record."""
        state = self._state
        cost = self.leaf_cost
        calls = "calls:" + layer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            op = state.op
            if op is None or state.in_leaf:
                return fn(*args, **kwargs)
            state.in_leaf = True
            started = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - started
                state.in_leaf = False
                self_s = op.self_s
                self_s[layer] += elapsed
                self_s["trace"] += cost
                op.counts[calls] += 1
                state.stack[-1].child += elapsed + cost
            if after is not None:
                after(op.counts, args, result)
            return result

        return wrapper

    # -- export -----------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The span records as a Chrome trace-event document."""
        if not self.spans:
            return {"traceEvents": [], "droppedSpans": self.dropped_spans}
        origin = min(record[4] for record in self.spans)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 1,
                "tid": thread,
                "args": {"op": op, "self_us": round(own * 1e6, 3)},
            }
            for op, thread, name, layer, start, duration, own in self.spans
        ]
        return {"traceEvents": events, "droppedSpans": self.dropped_spans}


# -- the instrumented entry points -------------------------------------------


def _swap(owner: Any, attr: str, make: Callable[[Any], Any], undo: list) -> None:
    original = getattr(owner, attr)
    undo.append((owner, attr, original))
    setattr(owner, attr, make(original))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap each layer's entry points; returns the restore function."""
    from repro.cache import semantic
    from repro.cache.viewcache import ViewCache
    from repro.core.pipeline import AccessController
    from repro.crypto.container import DocumentHeader
    from repro.dissemination.subscriber import Subscriber
    from repro.dsp import remote
    from repro.dsp.remote import RemoteDSP
    from repro.dsp.server import DSPServer
    from repro.dsp.store import DSPStore
    from repro.feeds.feed import Feed
    from repro.skipindex.decoder import SXSDecoder
    from repro.smartcard import applet
    from repro.smartcard.card import SmartCard
    from repro.smartcard.soe import SecureOperatingEnvironment
    from repro.terminal import api
    from repro.terminal.proxy import CardProxy

    undo: list = []
    T = tracer

    # terminal: one pull session, resumed once per yielded piece.
    def after_pull(counts: dict, args: tuple, kwargs: dict) -> None:
        outcome = kwargs.get("outcome")
        if outcome is not None:
            metrics = outcome.metrics
            counts["terminal.dsp_requests"] += metrics.dsp_requests
            counts["terminal.chunks_fetched"] += metrics.chunks_sent + metrics.chunks_wasted
            counts["terminal.chunks_wasted"] += metrics.chunks_wasted

    _swap(CardProxy, "stream_query",
          lambda fn: T.generator_span(fn, "stream_query", "terminal", after_pull), undo)

    # smartcard: every APDU, with its link bytes.
    def after_apdu(counts: dict, args: tuple, response: Any) -> None:
        counts["smartcard.apdus"] += 1
        counts["smartcard.link_bytes"] += args[1].wire_size + response.wire_size

    _swap(SmartCard, "process", lambda fn: T.span(fn, "process", "smartcard", after_apdu), undo)

    # crypto: chunk and blob opening, header verification (on the card).
    def after_open(counts: dict, args: tuple, plaintext: Any) -> None:
        counts["crypto.bytes_decrypted"] += len(plaintext)

    _swap(applet, "open_chunk", lambda fn: T.leaf(fn, "crypto", after_open), undo)
    _swap(applet, "open_blob", lambda fn: T.leaf(fn, "crypto", after_open), undo)
    _swap(DocumentHeader, "verify", lambda fn: T.leaf(fn, "crypto"), undo)

    # skipindex: pushes, decoded items and subtree skips.
    def after_push(counts: dict, args: tuple, result: Any) -> None:
        counts["skipindex.bytes_pushed"] += len(args[1])

    def after_item(counts: dict, args: tuple, item: Any) -> None:
        if item is not None:
            counts["skipindex.items"] += 1

    def skip(fn: Callable[..., int]) -> Callable[..., int]:
        timed = T.leaf(fn, "skipindex")

        def wrapper(decoder: Any) -> int:
            start = decoder.position
            resume = timed(decoder)
            T.count("skipindex.bytes_skipped", resume - start)
            return resume

        return wrapper

    _swap(SXSDecoder, "push", lambda fn: T.leaf(fn, "skipindex", after_push), undo)
    _swap(SXSDecoder, "next_item", lambda fn: T.leaf(fn, "skipindex", after_item), undo)
    _swap(SXSDecoder, "skip_open_subtree", skip, undo)

    # core: per-event dispatch, session end (engine choice), skip tests.
    def after_event(counts: dict, args: tuple, result: Any) -> None:
        counts["core.events"] += 1

    def after_finish(counts: dict, args: tuple, result: Any) -> None:
        stats = args[0].stats
        counts["core.sessions"] += 1
        if stats.events_pumped:
            counts["core.product_sessions"] += 1
            counts["core.events_pumped"] += stats.events_pumped
            counts["core.tokens_touched"] += stats.tokens_touched

    _swap(AccessController, "feed", lambda fn: T.leaf(fn, "core", after_event), undo)
    _swap(AccessController, "finish", lambda fn: T.leaf(fn, "core", after_finish), undo)
    _swap(AccessController, "subtree_is_irrelevant", lambda fn: T.leaf(fn, "core"), undo)

    # xmlstream: serializing the card's output.
    def after_write(counts: dict, args: tuple, text: str) -> None:
        counts["xmlstream.output_bytes"] += len(text)

    _swap(applet, "write_string", lambda fn: T.leaf(fn, "xmlstream", after_write), undo)

    # cache: lookups (with the semantic answerer nested) and records.
    def cache_span(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        traced = T.span(fn, name, "cache")

        def wrapper(cache: Any, *args: Any, **kwargs: Any) -> Any:
            evictions = cache.stats.evictions
            result = traced(cache, *args, **kwargs)
            T.count("cache.evictions", cache.stats.evictions - evictions)
            if name == "lookup":
                T.count("cache.lookups")
                if result is not None:
                    T.count("cache.semantic_hits" if result[1] else "cache.hits")
            return result

        return wrapper

    _swap(ViewCache, "lookup", lambda fn: cache_span(fn, "lookup"), undo)
    _swap(ViewCache, "record", lambda fn: cache_span(fn, "record"), undo)
    _swap(semantic, "answer_from_view", lambda fn: T.span(fn, "answer_from_view", "cache"), undo)

    # dsp: the in-process server's request methods.
    def dsp_span(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        traced = T.span(fn, name, "dsp")

        def wrapper(server: Any, *args: Any, **kwargs: Any) -> Any:
            served = server.bytes_served
            result = traced(server, *args, **kwargs)
            T.count("dsp.bytes", server.bytes_served - served)
            return result

        return wrapper

    requests = ("get_header", "get_chunk", "get_chunk_range", "get_rules",
                "get_wrapped_key", "get_meta")
    for method in requests:
        _swap(DSPServer, method, lambda fn, m=method: dsp_span(fn, m), undo)

    # dsp.remote / dsp.wire: the socket client and its codec.
    for method in requests:
        _swap(RemoteDSP, method, lambda fn, m=method: T.span(fn, m, "dsp.remote"), undo)
    _swap(remote, "encode_request", lambda fn: T.leaf(fn, "dsp.wire"), undo)
    _swap(remote, "decode_response", lambda fn: T.leaf(fn, "dsp.wire"), undo)

    # feeds and dissemination: the feed's public operations, each frame.
    for method in ("catch_up", "publish", "revoke", "subscribe", "broadcast"):
        _swap(Feed, method, lambda fn, m=method: T.span(fn, m, "feeds"), undo)

    def frame_span(fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = T.span(fn, "on_frame", "dissemination")

        def wrapper(subscriber: Any, kind: str, index: int, payload: bytes) -> None:
            done = subscriber.state.document_done
            skipped = subscriber.metrics.chunks_skipped
            traced(subscriber, kind, index, payload)
            if kind == "chunk" and (done or subscriber.metrics.chunks_skipped > skipped):
                T.count("dissemination.frames_dropped")

        return wrapper

    _swap(Subscriber, "on_frame", frame_span, undo)

    # write path: encode, seal, store, invalidate.
    _swap(api, "encode_document", lambda fn: T.span(fn, "encode_document", "write.encode"), undo)
    _swap(api, "seal_document", lambda fn: T.span(fn, "seal_document", "write.seal"), undo)
    _swap(api, "seal_blob", lambda fn: T.span(fn, "seal_blob", "write.seal"), undo)
    for method in ("put_document", "put_rules", "put_wrapped_key", "remove_wrapped_key"):
        _swap(DSPStore, method, lambda fn, m=method: T.span(fn, m, "write.store"), undo)
    for method in ("invalidate_document", "invalidate_subject"):
        _swap(ViewCache, method, lambda fn, m=method: T.span(fn, m, "write.invalidate"), undo)

    # model: card CPU split by SOE charge -- SimClock deltas, not wall
    # time; the wrapper's own cost is compensated like a leaf's.
    state = T._state

    def charge(fn: Callable[..., None], key: str) -> Callable[..., None]:
        cost = T.leaf_cost

        def wrapper(soe: Any, nbytes: int) -> None:
            op = state.op
            if op is None:
                fn(soe, nbytes)
                return
            clock = soe.clock
            before = clock.component("card_cpu")
            fn(soe, nbytes)
            op.counts[key] += clock.component("card_cpu") - before
            if not state.in_leaf:
                op.self_s["trace"] += cost
                state.stack[-1].child += cost

        return wrapper

    for kind in ("decrypt", "mac", "decode", "output"):
        _swap(SecureOperatingEnvironment, f"charge_{kind}",
              lambda fn, k=kind: charge(fn, f"model.{k}_s"), undo)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore
