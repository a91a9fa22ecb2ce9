"""The terminal-side proxy: XML API above, DSP calls and the card below.

The proxy plans the DSP side of a pull session: which encrypted chunks
to fetch, honouring the card's skip directives (it simply does not
fetch or transmit skipped chunks -- that is where the bandwidth saving
of the skip index materializes), and which byte ranges to replay for
granted refetches.  Everything that crosses the card link -- APDU
framing, the output drain, status words -- goes through the one
host-side driver, :class:`~repro.terminal.cardlink.CardLink`, which
the push subscriber shares.  The proxy never sees a decryption key:
everything through here is ciphertext or already-authorized output.

Chunk movement is planned by a
:class:`~repro.terminal.transfer.TransferPolicy`: the proxy keeps a
speculative prefetch window of ``window`` chunks ahead of the card's
cursor (one ranged DSP request per window refill) and hands the link
up to ``apdu_batch`` chunks at a time, so the card answers with one
resume offset and one output drain per batch.  Speculation interacts
with the skip index: when a skip directive lands mid-window,
prefetched chunks past the resume offset are discarded before the
card link and charged to ``SessionMetrics.bytes_wasted`` (chunks
already inside the in-flight batch are dropped undecrypted on the
card and charged the same way).  ``window=1, apdu_batch=1`` is the
paper's original sequential transport, byte for byte.
"""

from __future__ import annotations

import codecs
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.delivery import ViewMode
from repro.dsp.client import DSPClient
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.card import SmartCard, encode_header
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock
from repro.terminal.cardlink import (
    CardLink,
    CardOutOfResources,
    CardTampered,
    ProxyError,
)
from repro.terminal.transfer import TransferPolicy

__all__ = [
    "CardOutOfResources",
    "CardProxy",
    "CardTampered",
    "ProxyError",
    "QueryOutcome",
    "ViewPiece",
]

@dataclass(slots=True)
class ViewPiece:
    """One incremental slice of an authorized view.

    ``kind`` is ``"view"`` for in-order slices of the main pass and
    ``"fragment"`` for a refetched pending subtree.  ``position`` keys
    document order: for fragments it is the subtree's absolute
    plaintext offset; for main-view slices it is the running character
    offset inside the view.  ``entry_id`` is set on fragments only.
    """

    kind: str
    text: str
    position: int
    entry_id: int | None = None


@dataclass(slots=True)
class QueryOutcome:
    """Result of one pull session through the card."""

    xml: str
    fragments: list[tuple[int, str]] = field(default_factory=list)
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    #: The container and rules versions this view was pulled under --
    #: the validators a view cache stores alongside the entry.  The
    #: proxy fills them as soon as the header and rules arrive;
    #: ``None`` only on outcomes constructed outside a pull.
    doc_version: "int | None" = None
    rules_version: "int | None" = None


class CardProxy:
    """Drives one smart card against one DSP."""

    def __init__(
        self,
        card: SmartCard,
        dsp: DSPClient,
        link: LinkModel | None = None,
        clock: SimClock | None = None,
        transfer: TransferPolicy | None = None,
    ) -> None:
        self.dsp = dsp
        self.transfer = transfer or TransferPolicy()
        self._link = CardLink(card, link, clock or dsp.clock)

    @property
    def card(self) -> SmartCard:
        """The driven card; reassignable (chaos wraps it in a fault
        injector mid-life)."""
        return self._link.card

    @card.setter
    def card(self, card: SmartCard) -> None:
        self._link.card = card

    def provision_key(self, doc_id: str, secret: bytes) -> None:
        """Install a document secret over the (simulated) secure channel."""
        self._link.provision_key(doc_id, secret, SessionMetrics())

    # -- pull session ------------------------------------------------------------

    def query(
        self,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        groups: frozenset[str] = frozenset(),
        transfer: TransferPolicy | None = None,
    ) -> QueryOutcome:
        """Run a full pull session: :meth:`stream_query`, drained."""
        outcome = QueryOutcome(xml="")
        for __ in self.stream_query(
            doc_id,
            subject,
            query=query,
            strategy=strategy,
            view_mode=view_mode,
            groups=groups,
            outcome=outcome,
            transfer=transfer,
        ):
            pass
        return outcome

    def stream_query(
        self,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        groups: frozenset[str] = frozenset(),
        outcome: QueryOutcome | None = None,
        transfer: TransferPolicy | None = None,
    ) -> Iterator[ViewPiece]:
        """Run a pull session incrementally, yielding view slices.

        Each :class:`ViewPiece` is yielded as soon as the card's output
        drain produces it, *before* later chunks are fetched from the
        DSP -- consuming the first piece therefore costs only the
        transfers up to the first authorized output.  ``outcome`` (if
        given) is filled in place: the full view text after the main
        pass, fragments as they are refetched, and the session metrics
        once the generator is exhausted.  The operation sequence does
        not depend on how the stream is consumed, so clocks and metrics
        are bit-for-bit the same either way.  ``transfer`` overrides the
        proxy's transport plan for this session only.
        """
        if outcome is None:
            outcome = QueryOutcome(xml="")
        policy = transfer if transfer is not None else self.transfer
        metrics = outcome.metrics
        link = self._link
        clock_snapshot = link.clock.snapshot()
        link.open_session(
            metrics, doc_id, subject, query, strategy, view_mode, groups
        )
        header = self.dsp.get_header(doc_id)
        encoded_header = encode_header(header)
        metrics.dsp_requests += 1
        metrics.bytes_from_dsp += len(encoded_header)
        link.put_header(encoded_header, metrics)
        outcome.doc_version = header.version
        version, records = self.dsp.get_rules(doc_id)
        metrics.dsp_requests += 1
        metrics.bytes_from_dsp += sum(len(r) for r in records)
        link.put_rules(version, records, metrics)
        outcome.rules_version = version
        output = bytearray()
        chunk_cache: dict[int, bytes] = {}
        refetches: list[tuple[int, int, int]] = []
        decoder = codecs.getincrementaldecoder("utf-8")()
        emitted_bytes = 0
        emitted_chars = 0
        for __ in self._stream_document(
            doc_id, header, metrics, output, chunk_cache, policy, refetches
        ):
            if len(output) > emitted_bytes:
                text = decoder.decode(bytes(output[emitted_bytes:]))
                emitted_bytes = len(output)
                if text:
                    yield ViewPiece("view", text, position=emitted_chars)
                    emitted_chars += len(text)
        tail = decoder.decode(b"", final=True)
        if tail:
            yield ViewPiece("view", tail, position=emitted_chars)
        outcome.xml = output.decode("utf-8")
        for entry_id, start, text in self._run_refetches(
            doc_id, header, metrics, chunk_cache, policy, refetches
        ):
            outcome.fragments.append((entry_id, text))
            yield ViewPiece("fragment", text, position=start, entry_id=entry_id)
        link.close_session(metrics)
        metrics.clock = link.clock.since(clock_snapshot)

    # -- chunk fetch planning ------------------------------------------------

    def _fetch_range(
        self,
        doc_id: str,
        start: int,
        count: int,
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> list[bytes]:
        """One DSP round trip for ``count`` consecutive chunks."""
        try:
            if count == 1 and policy.window == 1:
                blobs = [self.dsp.get_chunk(doc_id, start)]
            else:
                blobs = self.dsp.get_chunk_range(doc_id, start, count)
        except (IndexError, KeyError) as exc:
            raise ProxyError(
                f"DSP could not serve chunks {start}..{start + count - 1} "
                f"of {doc_id!r} (truncated document?)"
            ) from exc
        metrics.dsp_requests += 1
        for offset, blob in enumerate(blobs):
            chunk_cache[start + offset] = blob
            metrics.bytes_from_dsp += len(blob)
        return blobs

    @staticmethod
    def _missing_runs(start: int, stop: int, have) -> list[tuple[int, int]]:
        """Consecutive ``(start, count)`` runs of [start, stop) not in
        ``have`` -- the holes a ranged fetch must fill."""
        runs: list[tuple[int, int]] = []
        index = start
        while index < stop:
            if index in have:
                index += 1
                continue
            run_end = index
            while run_end < stop and run_end not in have:
                run_end += 1
            runs.append((index, run_end - index))
            index = run_end
        return runs

    def _fill_window(
        self,
        doc_id: str,
        header,
        cursor: int,
        prefetched: dict[int, bytes],
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
    ) -> None:
        """Top the prefetch window up to ``window`` chunks past cursor.

        Missing stretches are fetched run by run, each run one ranged
        DSP request -- after a skip the window may already hold its
        leading chunks, so only the holes cost a round trip.
        """
        end = min(cursor + policy.window, header.chunk_count)
        for start, count in self._missing_runs(cursor, end, prefetched):
            blobs = self._fetch_range(
                doc_id, start, count, metrics, chunk_cache, policy
            )
            for offset, blob in enumerate(blobs):
                prefetched[start + offset] = blob

    # -- document streaming --------------------------------------------------

    def _stream_document(
        self,
        doc_id: str,
        header,
        metrics: SessionMetrics,
        output: bytearray,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
        refetches: list[tuple[int, int, int]],
    ) -> Iterator[None]:
        """Drive the main pass; yields after every output drain.

        A generator so :meth:`stream_query` can surface freshly drained
        output between chunk batches -- the caller decides whether to
        keep pulling.  The card's granted refetch entries land in
        ``refetches`` at END_DOCUMENT.
        """
        prefetched: dict[int, bytes] = {}
        index = 0
        while index < header.chunk_count:
            self._fill_window(
                doc_id, header, index, prefetched, metrics, chunk_cache,
                policy,
            )
            batch_end = min(index + policy.apdu_batch, header.chunk_count)
            batch = [(i, prefetched.pop(i)) for i in range(index, batch_end)]
            outcome = self._link.put_chunks(
                batch, policy.apdu_batch, metrics, output
            )
            yield None
            if outcome.done:
                break
            last_sent = batch[-1][0]
            next_index = max(
                last_sent + 1, outcome.next_offset // header.chunk_size
            )
            # Reconcile the window with the skip directive: prefetched
            # chunks the card jumped over are discarded before the card
            # link (wasted fetch); never-fetched ones are pure savings.
            for jumped in range(last_sent + 1, next_index):
                blob = prefetched.pop(jumped, None)
                if blob is None:
                    metrics.chunks_skipped += 1
                else:
                    metrics.chunks_wasted += 1
                    metrics.bytes_wasted += len(blob)
            index = next_index
        # A document that completed early strands the window's tail.
        for blob in prefetched.values():
            metrics.chunks_wasted += 1
            metrics.bytes_wasted += len(blob)
        refetches.extend(self._link.end_document(metrics, output))
        yield None

    def _run_refetches(
        self,
        doc_id: str,
        header,
        metrics: SessionMetrics,
        chunk_cache: dict[int, bytes],
        policy: TransferPolicy,
        refetches: list[tuple[int, int, int]],
    ) -> Iterator[tuple[int, int, str]]:
        """Replay granted pending subtrees; yields per settled fragment.

        Each yield is ``(entry_id, start, text)`` where ``start`` is
        the subtree's absolute plaintext offset -- entry ids are
        assigned at skip time during the sequential main pass, so both
        keys increase in document order.
        """
        for entry_id, start, end in refetches:
            metrics.refetch_count += 1
            sink = bytearray()
            self._link.begin_refetch(entry_id, metrics)
            first_chunk = start // header.chunk_size
            last_chunk = (end - 1) // header.chunk_size
            for run_start, count in self._missing_runs(
                first_chunk, last_chunk + 1, chunk_cache
            ):
                self._fetch_range(
                    doc_id, run_start, count, metrics, chunk_cache, policy
                )
            for index in range(first_chunk, last_chunk + 1):
                blob = chunk_cache[index]
                metrics.refetch_bytes += len(blob)
                if self._link.put_refetch_chunk(index, blob, metrics, sink):
                    break
            yield entry_id, start, sink.decode("utf-8")
