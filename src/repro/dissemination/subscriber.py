"""Subscriber side of the push scenario.

Each subscriber owns a card with its own rules; the terminal-side
shim decides, per broadcast chunk, whether the card still needs it --
if the card's skip directive already jumped past the chunk, it is
dropped *before* the 2 KB/s card link, which is where the skip index
pays off in push mode.

There is no backchannel, so pending subtrees must use the BUFFER
strategy (REFETCH would require asking the publisher to re-send).

A :class:`Subscriber` runs exactly one document session; a
:class:`SubscriberHandle` is a member's receiving end of a lane that
may carry several documents per carousel cycle.  It joins at the next
``header`` frame -- frames of a cycle already in progress are counted
and discarded -- and routes each document to its own
:class:`Subscriber` on the member's one card.  Completed documents
ignore repeat cycles.  Card refusals are recorded per document and
converted to the typed :mod:`repro.errors` taxonomy by
:meth:`SubscriberHandle.require_ok`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.errors import (
    KeyNotGranted,
    PolicyError,
    ReproError,
    ResourceExhausted,
    TamperDetected,
    TransportError,
)
from repro.smartcard.apdu import (
    CommandAPDU,
    Instruction,
    ResponseAPDU,
    StatusWord,
    transmit_chunk_batch,
)
from repro.smartcard.card import SmartCard, decode_header, encode_groups
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock
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
        self.card = card
        if registry is not None:
            # A fleet of simulated subscribers may share one compiled-
            # policy cache: subscribers on the same tier carry the same
            # rules, and carousel cycles repeat the same session, so
            # the automata are compiled once for the whole fleet.
            card.use_registry(registry)
        self.link = link or LinkModel()
        self.clock = clock or SimClock()
        self.metrics = SessionMetrics()
        self.metrics.clock = self.clock
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

    # -- card link ------------------------------------------------------------

    def _transmit(self, command: CommandAPDU) -> ResponseAPDU:
        response = self.card.process(command)
        nbytes = command.wire_size + response.wire_size
        self.metrics.apdu_count += 1
        self.metrics.bytes_to_card += command.wire_size
        self.metrics.bytes_from_card += response.wire_size
        self.clock.add(f"link:{self.name}", self.link.apdu_overhead_seconds)
        self.clock.add(f"link:{self.name}", self.link.transfer_seconds(nbytes))
        return response

    def _drain(self, last: ResponseAPDU) -> None:
        response = last
        while (response.sw & 0xFF00) == 0x6100:
            response = self._transmit(CommandAPDU(Instruction.GET_OUTPUT))
            self.state.output.extend(response.data)
            self.metrics.output_bytes += len(response.data)

    # -- broadcast listener -------------------------------------------------------

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        """Channel callback; drops frames the card no longer needs."""
        if self.state.failed is not None:
            return
        if self.state.document_done and self._ended:
            # A completed session ignores further carousel cycles.
            return
        if kind == "header":
            self._on_header(payload)
        elif kind == "chunk":
            self._on_chunk(index, payload)
        elif kind == "end":
            self._on_end()

    def _fail(self, context: str, response: ResponseAPDU) -> None:
        self.state.failed = f"{context}: {response.sw:#06x}"
        self.state.failed_sw = response.sw

    def _on_header(self, payload: bytes) -> None:
        header = decode_header(payload)
        self._chunk_size = header.chunk_size
        response = self._transmit(
            CommandAPDU(Instruction.SELECT, data=b"repro.applet")
        )
        doc = header.doc_id.encode("utf-8")
        subject = self.name.encode("utf-8")
        begin = bytes([0, len(doc)]) + doc + bytes([len(subject)]) + subject
        begin += encode_groups(self.groups)
        if self._view_mode is ViewMode.PRUNE:
            begin = bytes([0x04]) + begin[1:]
        response = self._transmit(
            CommandAPDU(Instruction.BEGIN_SESSION, data=begin)
        )
        if not response.ok:
            self._fail("begin", response)
            return
        response = self._transmit(
            CommandAPDU(Instruction.PUT_HEADER, data=payload)
        )
        if not response.ok:
            self._fail("header", response)
            return
        for rule_index, record in enumerate(self._rule_records):
            data = struct.pack(">Q", self._rules_version) + record
            response = self._transmit(
                CommandAPDU(
                    Instruction.PUT_RULES,
                    p1=rule_index >> 8,
                    p2=rule_index & 0xFF,
                    data=data,
                )
            )
            if not response.ok:
                self._fail(f"rule {rule_index}", response)
                return

    def _on_chunk(self, index: int, payload: bytes) -> None:
        if self.state.failed or self.state.document_done:
            return
        chunk_end = (index + 1) * self._chunk_size
        if chunk_end <= self.state.next_needed_offset:
            # The card already skipped past this chunk: drop it at the
            # terminal, before the card link.  (With batching the resume
            # offset is only as fresh as the last flush; frames it could
            # not rule out are dropped undecrypted on the card instead.)
            self.metrics.chunks_skipped += 1
            return
        if self.transfer.apdu_batch == 1:
            self.metrics.chunks_sent += 1
            response = self._transmit(
                CommandAPDU(
                    Instruction.PUT_CHUNK,
                    p1=index >> 8,
                    p2=index & 0xFF,
                    data=payload,
                )
            )
            if not response.ok:
                self._fail(f"chunk {index}", response)
                return
            next_offset, done = struct.unpack(">QB", response.data[:9])
            self.state.next_needed_offset = next_offset
            self._drain(response)
            if done:
                self.state.document_done = True
            return
        self._pending_batch.append((index, payload))
        if len(self._pending_batch) >= self.transfer.apdu_batch:
            self._flush_batch()

    def _flush_batch(self) -> None:
        """Push the accumulated frames through one batch exchange."""
        if not self._pending_batch or self.state.failed:
            self._pending_batch.clear()
            return
        batch = self._pending_batch
        self._pending_batch = []
        first, last = batch[0][0], batch[-1][0]
        outcome = transmit_chunk_batch(
            self._transmit, batch, self.link.max_command_payload
        )
        if not outcome.completed:
            self._fail(f"chunk batch {first}..{last}", outcome.response)
            return
        self.metrics.chunks_sent += len(batch) - outcome.dropped
        self.metrics.chunks_wasted += outcome.dropped
        self.metrics.bytes_wasted += outcome.dropped_bytes
        self.state.next_needed_offset = outcome.next_offset
        self.state.output.extend(outcome.piggyback)
        self.metrics.output_bytes += len(outcome.piggyback)
        self._drain(outcome.response)
        if outcome.done:
            self.state.document_done = True

    def _on_end(self) -> None:
        if self.state.failed:
            return
        self._flush_batch()
        if self.state.failed:
            # Keep the flush's specific card-error diagnostic rather
            # than misreporting it as a truncated broadcast.
            return
        if not self.state.document_done:
            self.state.failed = "stream ended before document completed"
            return
        response = self._transmit(CommandAPDU(Instruction.END_DOCUMENT))
        if not response.ok:
            self._fail("end", response)
            return
        self._drain(response)
        self._ended = True
        self._finalize_metrics()

    def _finalize_metrics(self) -> None:
        soe = self.card.soe
        self.metrics.ram_high_water = soe.memory.high_water
        self.metrics.card_cycles = soe.cycles_used
        self.metrics.bytes_decrypted = self.card.applet.bytes_decrypted
        self.metrics.bytes_skipped = self.card.applet.bytes_skipped
        self.metrics.max_pending_bytes = self.card.applet.max_pending_bytes

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
        message = f"subscriber {self.name!r}: {detail}"
        if self.state.failed_sw == StatusWord.SECURITY_STATUS_NOT_SATISFIED:
            raise TamperDetected(message, subject=self.name)
        if self.state.failed_sw == StatusWord.MEMORY_FAILURE:
            raise ResourceExhausted(message, subject=self.name)
        raise TransportError(message, subject=self.name)


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
