"""Pull sessions and streaming views for the community facade.

A :class:`Session` is what ``member.open(document)`` returns: a context
manager bound to the member's card with the document unlocked, whose
``query`` runs one pull evaluation and hands back a
:class:`ViewStream`.

The stream is an *incremental* iterator of authorized fragments.
Pieces surface as soon as the card's output drain produces
them -- before later chunks are even fetched from the DSP -- and
refetched pending subtrees settle lazily, by document position rather
than arrival order.  ``text()`` and ``events()`` materialize the
settled view when a caller does want it whole.
"""

from __future__ import annotations

from types import TracebackType
from typing import TYPE_CHECKING, Iterator

from repro.cache.viewcache import CachedView, CacheKey, ViewCache
from repro.core.delivery import ViewMode
from repro.errors import KeyNotGranted, PolicyError, UnknownDocument
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.resources import SessionMetrics
from repro.terminal.proxy import QueryOutcome, ViewPiece
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.events import Event
from repro.xmlstream.parser import parse_string

if TYPE_CHECKING:
    from repro.community.facade import Document, Member


def _parse_view_text(text: str) -> list[Event]:
    """Parse view text that may be empty or hold several subtrees.

    ``ViewMode.PRUNE`` can re-parent content so a view is not always a
    single-rooted document; wrapping in a synthetic root and stripping
    it afterwards parses every shape a view can take.
    """
    if not text:
        return []
    events = parse_string(f"<v>{text}</v>")
    return events[1:-1]


class ViewStream:
    """An incremental iterator over one authorized view.

    Iterating yields :class:`~repro.terminal.proxy.ViewPiece` items:
    in-order slices of the main pass first (each available before the
    next chunk window is pulled), then refetched pending subtrees.
    Pieces are cached, so the stream may be iterated again or
    materialized after consumption:

    * :meth:`text` -- the settled complete view (main view, then
      fragments ordered by their document position);
    * :meth:`events` -- the same, as parsed XML events;
    * :attr:`metrics` -- the session metrics (drains the stream).
    """

    def __init__(
        self, pieces: "Iterator[ViewPiece]", outcome: QueryOutcome
    ) -> None:
        self._live = pieces
        self._outcome = outcome
        self._cached: list[ViewPiece] = []
        self._finished = False
        self._error: BaseException | None = None

    # -- iteration --------------------------------------------------------

    def __iter__(self) -> "Iterator[ViewPiece]":
        index = 0
        while True:
            while index < len(self._cached):
                yield self._cached[index]
                index += 1
            if self._finished:
                return
            if self._advance() is None:
                return

    def _advance(self) -> ViewPiece | None:
        try:
            piece = next(self._live)
        except StopIteration:
            self._finished = True
            return None
        except BaseException as exc:
            # A failed pull must not leave a half-driven generator
            # around: record the failure, close the generator (its
            # ``finally`` blocks run now, not at GC time), and refuse
            # to ever deliver the partial view.
            self._error = exc
            self._finished = True
            self._close_live()
            raise
        self._cached.append(piece)
        return piece

    def _close_live(self) -> None:
        close = getattr(self._live, "close", None)
        if close is not None:
            try:
                close()
            except Exception:
                pass

    def abort(self) -> None:
        """Abandon the stream without raising (idempotent).

        Closes the underlying generator so the card pass unwinds now;
        materializing a stream that failed still re-raises its error.
        """
        if not self._finished:
            self._finished = True
            self._close_live()

    def finish(self) -> "ViewStream":
        """Drain the stream to completion (idempotent).

        A stream that failed mid-pull re-raises its recorded error on
        every ``finish`` (and therefore on every materializer): a
        partial view is never delivered as if it were the document.
        """
        while not self._finished:
            self._advance()
        if self._error is not None:
            raise self._error
        return self

    @property
    def closed(self) -> bool:
        """Whether the underlying session pass has completed."""
        return self._finished

    @property
    def error(self) -> BaseException | None:
        """The failure that ended the stream, if any."""
        return self._error

    # -- materializers ----------------------------------------------------

    @property
    def pieces(self) -> "list[ViewPiece]":
        """Every piece of the view (drains the stream)."""
        self.finish()
        return list(self._cached)

    @property
    def fragments(self) -> "list[ViewPiece]":
        """Refetched subtrees, settled by document position."""
        self.finish()
        return sorted(
            (p for p in self._cached if p.kind == "fragment"),
            key=lambda p: p.position,
        )

    def text(self) -> str:
        """The settled complete view as one string.

        The main view comes first (it is already in document order);
        refetched fragments follow ordered by the absolute document
        position of their subtree, whatever order the transport
        replayed them in.
        """
        self.finish()
        parts = [self._outcome.xml]
        parts.extend(piece.text for piece in self.fragments)
        return "".join(parts)

    def events(self) -> list[Event]:
        """The settled view parsed back into XML events."""
        self.finish()
        events = _parse_view_text(self._outcome.xml)
        for piece in self.fragments:
            events.extend(_parse_view_text(piece.text))
        return events

    @property
    def metrics(self) -> SessionMetrics:
        """Session metrics; drains the stream to finalize them."""
        self.finish()
        return self._outcome.metrics


class Session:
    """One member's pull session on one document (a context manager).

    Opening unlocks the document on the member's card (one wrapped-key
    fetch + unwrap, skipped if already unlocked).  The session's
    ``transfer`` plan rides along with each query -- terminal state is
    never mutated, so overlapping sessions on one member cannot leak or
    clobber each other's transport plans.  Closing drains any stream
    still in flight, so the card never stays parked mid-document.
    """

    def __init__(
        self,
        member: "Member",
        document: "Document",
        *,
        transfer: TransferPolicy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        self.member = member
        self.document = document
        self.transfer = transfer
        self.groups = groups
        self._streams: list[ViewStream] = []
        self._closed = False
        member.unlock(document.doc_id, document.owner.name)

    # -- context management ----------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def close(self) -> None:
        """Finish any in-flight stream (idempotent).

        A stream that already failed (or fails while draining) is
        aborted rather than re-raised -- its consumer saw the error
        when it happened; teardown must not resurrect it.
        """
        if self._closed:
            return
        self._closed = True
        for stream in self._streams:
            try:
                stream.finish()
            except Exception:
                stream.abort()

    # -- queries ----------------------------------------------------------

    def query(
        self,
        xpath: str | None = None,
        *,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
    ) -> ViewStream:
        """Run one pull evaluation; returns a fresh :class:`ViewStream`.

        ``xpath`` restricts the view to matching subtrees (the paper's
        pull queries); ``strategy`` picks how pending subtrees are
        handled and ``view_mode`` how denied ancestors render.
        """
        if self._closed:
            raise PolicyError(
                f"session on {self.document.doc_id!r} is closed",
                doc_id=self.document.doc_id,
                subject=self.member.name,
            )
        # One card runs one evaluation at a time: a still-streaming
        # earlier view must complete before the next BEGIN_SESSION.
        # An earlier stream that failed -- or fails while being
        # drained here -- is aborted instead of poisoning this query;
        # the card resets its session state on the next BEGIN anyway.
        for stream in self._streams:
            try:
                stream.finish()
            except Exception:
                stream.abort()
        self._streams = [s for s in self._streams if not s.closed]
        cache = self.member.community.view_cache
        key: CacheKey | None = None
        probe_cost = 0
        if cache is not None:
            key = CacheKey(
                doc_id=self.document.doc_id,
                subject=self.member.name,
                query=xpath,
                strategy=strategy.value,
                view_mode=view_mode.value,
                groups=self.groups,
            )
            cached = self._consult_cache(cache, key)
            if isinstance(cached, ViewStream):
                self._streams.append(cached)
                return cached
            probe_cost = cached
        outcome = QueryOutcome(xml="")
        pieces = self.member.proxy.stream_query(
            self.document.doc_id,
            self.member.name,
            query=xpath,
            strategy=strategy,
            view_mode=view_mode,
            groups=self.groups,
            outcome=outcome,
            transfer=self.transfer,
        )
        if cache is not None and key is not None:
            # The probe that failed to answer still crossed the wire:
            # charge it to this session, not to nobody.
            outcome.metrics.dsp_requests += 1
            outcome.metrics.bytes_from_dsp += probe_cost
            pieces = self._recording(cache, key, pieces, outcome)
        stream = ViewStream(pieces, outcome)
        self._streams.append(stream)
        return stream

    # -- view cache --------------------------------------------------------

    def _consult_cache(
        self, cache: ViewCache, key: CacheKey
    ) -> "ViewStream | int":
        """Probe freshness and try to answer from cache.

        Returns a replayed :class:`ViewStream` on a hit, or the probe's
        byte cost (to charge onto the live pull) on a miss.  A probe
        reporting the subject's wrapped key gone purges the subject's
        entries and raises :class:`~repro.errors.KeyNotGranted`: with
        the cache enabled, the freshness probe doubles as a revocation
        check, and a revoked subject is never served -- from cache *or*
        from the card's retained copy.
        """
        doc_id = self.document.doc_id
        subject = self.member.name
        try:
            meta = self.member.proxy.dsp.get_meta(doc_id, subject)
        except UnknownDocument:
            cache.invalidate_document(doc_id)
            raise
        cache.count("probes")
        if not meta.has_key:
            cache.refuse_revoked(doc_id, subject)
            raise KeyNotGranted(
                f"document {doc_id!r} no longer has a key wrapped for "
                f"{subject!r} (revoked); refusing to serve a cached or "
                "retained view",
                doc_id=doc_id,
                subject=subject,
            )
        found = cache.lookup(key, meta)
        if found is None:
            return meta.wire_size
        entry, semantic_hit = found
        return self._replay(entry, semantic_hit, meta.wire_size)

    def _replay(
        self, entry: CachedView, semantic_hit: bool, probe_cost: int
    ) -> ViewStream:
        """A :class:`ViewStream` serving a cached view byte-for-byte.

        The fabricated metrics show the session's true cost: one DSP
        round trip (the probe), zero card cycles, zero link traffic.
        """
        metrics = SessionMetrics()
        metrics.dsp_requests = 1
        metrics.bytes_from_dsp = probe_cost
        if semantic_hit:
            metrics.cache_semantic_hit = 1
        else:
            metrics.cache_hit = 1
        ((doc_version, rules_version),) = entry.freshness.versions
        outcome = QueryOutcome(
            xml=entry.xml,
            fragments=list(entry.fragments),
            metrics=metrics,
            doc_version=doc_version,
            rules_version=rules_version,
        )

        def replayed() -> "Iterator[ViewPiece]":
            for kind, text, position, entry_id in entry.pieces:
                yield ViewPiece(kind, text, position, entry_id)

        return ViewStream(replayed(), outcome)

    def _recording(
        self,
        cache: ViewCache,
        key: CacheKey,
        pieces: "Iterator[ViewPiece]",
        outcome: QueryOutcome,
    ) -> "Iterator[ViewPiece]":
        """Tee a live pull into the cache -- on clean completion only.

        The entry is recorded after the underlying generator exhausts
        normally; a pull that raises or is aborted (``GeneratorExit``)
        leaves the cache untouched, so a partial view can never be
        served later as if it were the document.
        """
        recorded: list[tuple[str, str, int, "int | None"]] = []
        try:
            for piece in pieces:
                recorded.append(
                    (piece.kind, piece.text, piece.position, piece.entry_id)
                )
                yield piece
        finally:
            close = getattr(pieces, "close", None)
            if close is not None:
                close()
        cache.record(
            key,
            xml=outcome.xml,
            pieces=tuple(recorded),
            fragments=tuple(outcome.fragments),
            doc_version=outcome.doc_version,
            rules_version=outcome.rules_version,
        )
