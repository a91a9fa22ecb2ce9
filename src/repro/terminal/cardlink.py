"""The host half of the card session protocol.

One :class:`CardLink` drives one card over one 2 KB/s link.  It is the
only host-side code that frames APDUs: the pull proxy
(:class:`~repro.terminal.proxy.CardProxy`) feeds it chunks fetched from
the DSP, the push subscriber
(:class:`~repro.dissemination.subscriber.Subscriber`) feeds it chunks
heard on a broadcast, and both get the same session: SELECT on first
use, BEGIN_SESSION, PUT_HEADER, the PUT_RULES upload, chunks (one
PUT_CHUNK per chunk when ``apdu_batch == 1``, PUT_CHUNK_BATCH
exchanges otherwise), END_DOCUMENT, and a ``GET_OUTPUT`` drain after
every answer that announces output.

Every APDU is charged to the caller's
:class:`~repro.smartcard.resources.SessionMetrics` and to the link's
clock component.  A refused APDU raises the :class:`ProxyError` its
status word maps to; :meth:`CardLink.close_session` fills the card
fields of the metrics, ``card_cycles`` as the session's own delta.
"""

from __future__ import annotations

import struct

from repro.core.delivery import ViewMode
from repro.errors import ResourceExhausted, TamperDetected, TransportError
from repro.smartcard.apdu import (
    BatchOutcome,
    CommandAPDU,
    Instruction,
    ResponseAPDU,
    StatusWord,
    transmit_chunk_batch,
)
from repro.smartcard.applet import PendingStrategy
from repro.smartcard.card import SmartCard, encode_session_open
from repro.smartcard.resources import LinkModel, SessionMetrics, SimClock


class ProxyError(TransportError):
    """A session failed (card refused, integrity violation, ...).

    ``status`` is the card's status word and ``context`` the step that
    was refused (``"put chunk 3"``), when the failure came from the card.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        context: str | None = None,
        *,
        subject: str | None = None,
    ) -> None:
        super().__init__(message, subject=subject)
        self.status = status
        self.context = context


class CardTampered(ProxyError, TamperDetected):
    """The card reported tamper evidence (``0x6982``) mid-session."""


class CardOutOfResources(ProxyError, ResourceExhausted):
    """The card ran out of secure RAM (``0x6581``) mid-session."""


#: Status word -> the typed error a refusal with it raises.
_CARD_ERRORS: dict[int, type[ProxyError]] = {
    StatusWord.SECURITY_STATUS_NOT_SATISFIED: CardTampered,
    StatusWord.MEMORY_FAILURE: CardOutOfResources,
}


def card_error(
    message: str,
    status: int | None,
    context: str | None = None,
    *,
    subject: str | None = None,
) -> ProxyError:
    """The taxonomy-precise :class:`ProxyError` for a card status word."""
    kind = ProxyError if status is None else _CARD_ERRORS.get(status, ProxyError)
    return kind(message, status, context, subject=subject)


class CardLink:
    """Drives one card's sessions; ``component`` names the clock lane."""

    def __init__(
        self,
        card: SmartCard,
        link: LinkModel | None = None,
        clock: SimClock | None = None,
        component: str = "link",
    ) -> None:
        self.card = card
        self.link = link or LinkModel()
        self.clock = clock or SimClock()
        self.component = component
        self._selected = False
        self._cycles_at_open = 0

    # -- one APDU ----------------------------------------------------------

    def transmit(
        self, command: CommandAPDU, metrics: SessionMetrics, context: str
    ) -> ResponseAPDU:
        """Send one APDU over the link and account for it."""
        response = self.card.process(command)
        sent = command.wire_size
        received = response.wire_size
        metrics.apdu_count += 1
        metrics.bytes_to_card += sent
        metrics.bytes_from_card += received
        # Two charges, not one of their sum: the link's float total
        # depends on how its additions are split.
        self.clock.add(self.component, self.link.apdu_overhead_seconds)
        self.clock.add(self.component, self.link.transfer_seconds(sent + received))
        if not response.ok:
            raise card_error(
                f"card error {response.sw:#06x} during {context}",
                response.sw,
                context,
            )
        return response

    def drain(
        self, response: ResponseAPDU, metrics: SessionMetrics, sink: bytearray
    ) -> None:
        """Collect the output ``response`` announces into ``sink``."""
        while (response.sw & 0xFF00) == 0x6100:
            response = self.transmit(
                CommandAPDU(Instruction.GET_OUTPUT), metrics, "get output"
            )
            sink.extend(response.data)
            metrics.output_bytes += len(response.data)

    # -- session setup -----------------------------------------------------

    def _select_once(self, metrics: SessionMetrics) -> None:
        """SELECT the applet on the link's first use."""
        if self._selected:
            return
        self.transmit(
            CommandAPDU(Instruction.SELECT, data=b"repro.applet"),
            metrics,
            "select",
        )
        self._selected = True

    def provision_key(
        self, doc_id: str, secret: bytes, metrics: SessionMetrics
    ) -> None:
        """Install a document secret over the (simulated) secure channel."""
        self._select_once(metrics)
        doc = doc_id.encode("utf-8")
        self.transmit(
            CommandAPDU(
                Instruction.ADMIN_PROVISION_KEY,
                data=bytes([len(doc)]) + doc + secret,
            ),
            metrics,
            "provision key",
        )

    def open_session(
        self,
        metrics: SessionMetrics,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        """SELECT on first use, then BEGIN_SESSION."""
        self._cycles_at_open = self.card.soe.cycles_used
        self._select_once(metrics)
        self.transmit(
            CommandAPDU(
                Instruction.BEGIN_SESSION,
                data=encode_session_open(
                    doc_id, subject, query, strategy, view_mode, groups
                ),
            ),
            metrics,
            "begin session",
        )

    def put_header(self, encoded: bytes, metrics: SessionMetrics) -> None:
        self.transmit(
            CommandAPDU(Instruction.PUT_HEADER, data=encoded),
            metrics,
            "put header",
        )

    def put_rules(
        self, version: int, records: list[bytes], metrics: SessionMetrics
    ) -> None:
        """Upload the sealed rule records, one PUT_RULES each."""
        for index, record in enumerate(records):
            self.transmit(
                CommandAPDU(
                    Instruction.PUT_RULES,
                    p1=index >> 8,
                    p2=index & 0xFF,
                    data=struct.pack(">Q", version) + record,
                ),
                metrics,
                f"put rule {index}",
            )

    # -- the document --------------------------------------------------------

    def put_chunks(
        self,
        batch: list[tuple[int, bytes]],
        apdu_batch: int,
        metrics: SessionMetrics,
        sink: bytearray,
    ) -> BatchOutcome:
        """Send consecutive ``(index, blob)`` chunks; drain their output.

        ``apdu_batch == 1`` is the paper's original transport: one
        PUT_CHUNK for the batch's one chunk.  Any larger batch size
        sends the batch as one PUT_CHUNK_BATCH exchange, whose chunks
        the card may drop undecrypted past a skip directive (counted
        as wasted).
        """
        if apdu_batch == 1:
            ((index, blob),) = batch
            response = self.transmit(
                CommandAPDU(
                    Instruction.PUT_CHUNK,
                    p1=index >> 8,
                    p2=index & 0xFF,
                    data=blob,
                ),
                metrics,
                f"put chunk {index}",
            )
            next_offset, done = struct.unpack(">QB", response.data[:9])
            outcome = BatchOutcome(
                response=response,
                next_offset=next_offset,
                done=bool(done),
                consumed=1,
            )
        else:
            context = f"put chunk batch {batch[0][0]}..{batch[-1][0]}"
            outcome = transmit_chunk_batch(
                lambda command: self.transmit(command, metrics, context),
                batch,
                self.link.max_command_payload,
            )
        metrics.chunks_sent += len(batch) - outcome.dropped
        metrics.chunks_wasted += outcome.dropped
        metrics.bytes_wasted += outcome.dropped_bytes
        sink.extend(outcome.piggyback)
        metrics.output_bytes += len(outcome.piggyback)
        self.drain(outcome.response, metrics, sink)
        return outcome

    def end_document(
        self, metrics: SessionMetrics, sink: bytearray
    ) -> list[tuple[int, int, int]]:
        """END_DOCUMENT: the granted refetch entries, output drained.

        Each entry is ``(entry_id, start, end)`` in plaintext offsets;
        the card pages them 13 to a response.
        """
        first = self.transmit(
            CommandAPDU(Instruction.END_DOCUMENT), metrics, "end document"
        )
        total = struct.unpack(">H", first.data[:2])[0]
        entries: list[tuple[int, int, int]] = []
        data = first.data[2:]
        page = 0
        while True:
            for position in range(0, len(data), 18):
                entry_id, start, end = struct.unpack(
                    ">HQQ", data[position:position + 18]
                )
                entries.append((entry_id, start, end))
            if len(entries) >= total:
                break
            page += 1
            data = self.transmit(
                CommandAPDU(Instruction.END_DOCUMENT, p1=page),
                metrics,
                f"end document page {page}",
            ).data[2:]
        self.drain(first, metrics, sink)
        return entries

    def begin_refetch(self, entry_id: int, metrics: SessionMetrics) -> None:
        self.transmit(
            CommandAPDU(
                Instruction.BEGIN_REFETCH,
                p1=entry_id >> 8,
                p2=entry_id & 0xFF,
            ),
            metrics,
            f"begin refetch {entry_id}",
        )

    def put_refetch_chunk(
        self, index: int, blob: bytes, metrics: SessionMetrics, sink: bytearray
    ) -> bool:
        """Replay one chunk of a granted subtree; True once it is done."""
        response = self.transmit(
            CommandAPDU(
                Instruction.PUT_REFETCH_CHUNK,
                p1=index >> 8,
                p2=index & 0xFF,
                data=blob,
            ),
            metrics,
            f"refetch chunk {index}",
        )
        __, done = struct.unpack(">QB", response.data[:9])
        self.drain(response, metrics, sink)
        return bool(done)

    def close_session(self, metrics: SessionMetrics) -> None:
        """Fill the card fields of ``metrics`` for the session just run.

        ``card_cycles`` counts this session's cycles only (the card's
        counter is lifetime); ``ram_high_water`` is the card's
        high-water mark; the applet and engine counters are reset by
        every BEGIN_SESSION, so they are the session's already.
        """
        soe = self.card.soe
        applet = self.card.applet
        metrics.ram_high_water = soe.memory.high_water
        metrics.card_cycles = soe.cycles_used - self._cycles_at_open
        metrics.bytes_decrypted = applet.bytes_decrypted
        metrics.bytes_skipped = applet.bytes_skipped
        metrics.max_pending_bytes = applet.max_pending_bytes
        stats = applet.engine_stats
        if stats is not None:
            metrics.events_pumped = stats.events_pumped
            metrics.tokens_touched = stats.tokens_touched
            metrics.product_states_interned = stats.product_states_interned
