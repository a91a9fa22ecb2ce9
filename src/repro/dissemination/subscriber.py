"""Subscriber side of the push scenario.

Each subscriber owns a card with its own rules; the terminal-side
shim decides, per broadcast chunk, whether the card still needs it --
if the card's skip directive already jumped past the chunk, it is
dropped *before* the 2 KB/s card link, which is where the skip index
pays off in push mode.

There is no backchannel, so pending subtrees must use the BUFFER
strategy (REFETCH would require asking the publisher to re-send).

The card session itself -- APDU framing, PUT_CHUNK vs PUT_CHUNK_BATCH,
the output drain, status words, the card metrics -- runs through the
same :class:`~repro.terminal.cardlink.CardLink` the pull proxy uses;
the subscriber adds only the frame dropping, its batch buffer and the
failure record.

A :class:`Subscriber` runs exactly one document session; a
:class:`SubscriberHandle` is a member's receiving end of a lane that
may carry several documents per carousel cycle.  It joins at the next
``header`` frame -- frames of a cycle already in progress are counted
and discarded -- and routes each document to its own
:class:`Subscriber` on the member's one card.  Completed documents
ignore repeat cycles.  Card refusals are recorded per document
(``"{step}: {status word}"``) and converted to the link's typed errors
by :meth:`SubscriberHandle.require_ok`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.errors import KeyNotGranted, PolicyError, ReproError, TransportError
from repro.smartcard.card import SmartCard, decode_header
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock
from repro.terminal.cardlink import CardLink, ProxyError, card_error
from repro.terminal.transfer import TransferPolicy

if TYPE_CHECKING:
    from repro.community.facade import Member


@dataclass(slots=True)
class SubscriberState:
    """Progress of one subscriber through the broadcast."""

    next_needed_offset: int = 0
    document_done: bool = False
    failed: str | None = None
    failed_sw: int | None = None
    output: bytearray = field(default_factory=bytearray)


class Subscriber:
    """One community member listening to the broadcast."""

    def __init__(
        self,
        name: str,
        card: SmartCard,
        rules_version: int,
        rule_records: list[bytes],
        link: LinkModel | None = None,
        clock: SimClock | None = None,
        view_mode: ViewMode = ViewMode.SKELETON,
        registry: PolicyRegistry | None = None,
        transfer: TransferPolicy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        self.name = name
        #: Roles the subscriber holds; rules written for any of them
        #: apply.  Same-tier subscribers sharing a group (and a
        #: registry) therefore share ONE compiled policy -- their
        #: effective sub-policies fingerprint identically.
        self.groups = groups
        if registry is not None:
            # A fleet of simulated subscribers may share one compiled-
            # policy cache: subscribers on the same tier carry the same
            # rules, and carousel cycles repeat the same session, so
            # the automata are compiled once for the whole fleet.
            card.use_registry(registry)
        self._link = CardLink(card, link, clock, f"link:{name}")
        self.metrics = SessionMetrics()
        self.metrics.clock = self._link.clock
        self._rules_version = rules_version
        self._rule_records = rule_records
        self._view_mode = view_mode
        #: There is no DSP in push mode, so only the APDU half of the
        #: policy applies: up to ``apdu_batch`` broadcast chunks ride
        #: one PUT_CHUNK_BATCH exchange (one resume offset, one drain).
        self.transfer = transfer or TransferPolicy()
        self.state = SubscriberState()
        self._chunk_size = 0
        self._ended = False
        self._pending_batch: list[tuple[int, bytes]] = []

    @property
    def card(self) -> SmartCard:
        return self._link.card

    # -- broadcast listener -------------------------------------------------------

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        """Channel callback; drops frames the card no longer needs."""
        if self.state.failed is not None:
            return
        if self.state.document_done and self._ended:
            # A completed session ignores further carousel cycles.
            return
        try:
            if kind == "header":
                self._on_header(payload)
            elif kind == "chunk":
                self._on_chunk(index, payload)
            elif kind == "end":
                self._on_end()
        except ProxyError as exc:
            # No exception crosses a broadcast: record the refusal.
            self.state.failed = f"{exc.context}: {exc.status:#06x}"
            self.state.failed_sw = exc.status

    def _on_header(self, payload: bytes) -> None:
        header = decode_header(payload)
        self._chunk_size = header.chunk_size
        link = self._link
        link.open_session(
            self.metrics,
            header.doc_id,
            self.name,
            view_mode=self._view_mode,
            groups=self.groups,
        )
        link.put_header(payload, self.metrics)
        link.put_rules(self._rules_version, self._rule_records, self.metrics)

    def _on_chunk(self, index: int, payload: bytes) -> None:
        if self.state.document_done:
            return
        chunk_end = (index + 1) * self._chunk_size
        if chunk_end <= self.state.next_needed_offset:
            # The card already skipped past this chunk: drop it at the
            # terminal, before the card link.  (With batching the resume
            # offset is only as fresh as the last flush; frames it could
            # not rule out are dropped undecrypted on the card instead.)
            self.metrics.chunks_skipped += 1
            return
        self._pending_batch.append((index, payload))
        if len(self._pending_batch) >= self.transfer.apdu_batch:
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Push the accumulated frames through one chunk exchange."""
        if not self._pending_batch:
            return
        batch = self._pending_batch
        self._pending_batch = []
        outcome = self._link.put_chunks(
            batch, self.transfer.apdu_batch, self.metrics, self.state.output
        )
        self.state.next_needed_offset = outcome.next_offset
        if outcome.done:
            self.state.document_done = True

    def _on_end(self) -> None:
        self._flush_batch()
        if not self.state.document_done:
            self.state.failed = "stream ended before document completed"
            return
        self._link.end_document(self.metrics, self.state.output)
        self._ended = True
        self._link.close_session(self.metrics)

    # -- results --------------------------------------------------------------------

    @property
    def view(self) -> str:
        """The authorized view received so far."""
        return self.state.output.decode("utf-8")

    @property
    def ok(self) -> bool:
        return self.state.failed is None and self.state.document_done

    def require_ok(self) -> None:
        """Raise the typed error behind a failed or truncated session.

        Push mode reports card refusals as recorded status words (there
        is no exception channel across a broadcast); this converts the
        record into the :mod:`repro.errors` taxonomy for callers that
        want one ``except`` ladder across pull and push.
        """
        if self.ok:
            return
        detail = self.state.failed or "stream ended before document completed"
        raise card_error(
            f"subscriber {self.name!r}: {detail}",
            self.state.failed_sw,
            subject=self.name,
        )


class SubscriberHandle:
    """A member's receiving end of one broadcast lane.

    ``provision`` puts a document's secret on the member's card the
    first time the lane carries that document; it is ``None`` when the
    card was unlocked up front.  It may raise a
    :class:`~repro.errors.ReproError` (e.g. a grant withdrawn between
    cycles), which is recorded rather than unwinding the publisher's
    broadcast loop, and surfaced by :meth:`require_ok`.
    """

    def __init__(
        self,
        member: "Member",
        provision: Callable[[str], None] | None = None,
        *,
        groups: frozenset[str] = frozenset(),
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
    ) -> None:
        self.member = member
        self.groups = groups
        #: The feed tier this handle listens to (``None`` on a channel).
        self.tier: str | None = None
        self._provision = provision
        self._view_mode = view_mode
        self._transfer = transfer
        self._subscribers: dict[str, Subscriber] = {}
        self._current: Subscriber | None = None
        #: Frames discarded outside any document (the tail of the cycle
        #: in progress when the member tuned in).
        self.frames_missed = 0
        #: Set by ``Feed.revoke``: a detached handle ignores every
        #: further frame, so a revoked member's view never grows.
        self.revoked = False
        self._failure: ReproError | None = None

    def __repr__(self) -> str:
        return f"SubscriberHandle({self.member.name!r}, tier={self.tier!r})"

    # -- broadcast listener ----------------------------------------------

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        """Channel callback: route frames to per-document sessions."""
        if self.revoked or self._failure is not None:
            return
        if kind == "header":
            try:
                self._current = self._engage(decode_header(payload).doc_id)
            except ReproError as exc:
                self._failure = exc
                self._current = None
                return
        elif self._current is None:
            self.frames_missed += 1
            return
        self._current.on_frame(kind, index, payload)
        if kind == "end":
            self._current = None

    def _engage(self, doc_id: str) -> Subscriber:
        subscriber = self._subscribers.get(doc_id)
        if subscriber is not None:
            return subscriber
        if self._provision is not None:
            self._provision(doc_id)
        community = self.member.community
        stored = community._require_store().get(doc_id)
        subscriber = Subscriber(
            self.member.name,
            self.member.card,
            stored.rules_version,
            list(stored.rule_records),
            clock=community.clock,
            view_mode=self._view_mode,
            registry=community.registry,
            transfer=self._transfer,
            groups=self.groups,
        )
        self._subscribers[doc_id] = subscriber
        return subscriber

    # -- results ----------------------------------------------------------

    @property
    def views(self) -> dict[str, str]:
        """Per-document authorized views, in first-engagement order."""
        return {doc_id: sub.view for doc_id, sub in self._subscribers.items()}

    @property
    def view(self) -> str:
        """The concatenated authorized view received so far."""
        return "".join(self.views.values())

    def metrics_for(self, doc_id: str) -> SessionMetrics:
        """The card/link metrics of one document's session."""
        subscriber = self._subscribers.get(doc_id)
        if subscriber is None:
            raise KeyNotGranted(
                f"{self.member.name!r} never engaged document {doc_id!r}",
                doc_id=doc_id,
                subject=self.member.name,
            )
        return subscriber.metrics

    @property
    def metrics(self) -> SessionMetrics:
        """The metrics of the handle's one document session.

        Empty before the first header; a lane carrying several
        documents must name one through :meth:`metrics_for`.
        """
        if not self._subscribers:
            return SessionMetrics()
        if len(self._subscribers) > 1:
            raise PolicyError(
                f"{self.member.name!r} received {len(self._subscribers)} "
                "documents; use metrics_for(doc_id)",
                subject=self.member.name,
            )
        return next(iter(self._subscribers.values())).metrics

    @property
    def docs_complete(self) -> int:
        return sum(
            1 for sub in self._subscribers.values() if sub.state.document_done
        )

    @property
    def ok(self) -> bool:
        return (
            not self.revoked
            and self._failure is None
            and bool(self._subscribers)
            and all(sub.ok for sub in self._subscribers.values())
        )

    def require_ok(self) -> None:
        """Raise the typed error behind any failed document session."""
        if self._failure is not None:
            raise self._failure
        if self.revoked:
            raise KeyNotGranted(
                f"{self.member.name!r} was revoked from tier {self.tier!r}",
                subject=self.member.name,
            )
        if not self._subscribers:
            raise TransportError(
                f"subscriber {self.member.name!r} never saw a header frame",
                subject=self.member.name,
            )
        for subscriber in self._subscribers.values():
            subscriber.require_ok()
