"""The on-card access-control applet.

This is the component the whole paper is about: inside the SOE it
decrypts the incoming chunk stream, checks its integrity, runs the
streaming rule evaluator and emits the authorized view -- "the SOE is
in charge of decrypting the input document, checking its integrity and
evaluating the access control policy corresponding to a given
(document, subject) pair" (Section 2.1).

Skip decisions (Section 2.3) happen here: after each decoded ``open``
the applet combines (a) the element's delivery status and (b) the
reachability test of every automaton against the subtree's tag bitmap.
A subtree is skipped when nothing inside can be delivered and no
automaton or value predicate needs its bytes; the proxy is told the
resume offset so the skipped chunks are never transferred, saving both
link time and decryption -- "its decryption and transmission overhead
must not exceed its own benefit".

Pending subtrees (predicates unresolved at the subtree root) follow one
of two strategies, ablated by experiment E10:

* ``PendingStrategy.BUFFER``  -- stream the subtree and let the delivery
  engine hold it in secure RAM until the predicate resolves;
* ``PendingStrategy.REFETCH`` -- if the subtree is otherwise skippable,
  skip it now, remember the byte range, and have the proxy re-send it
  after the close of the predicate scope if the decision resolved to
  PERMIT.  Out-of-order delivery in exchange for near-zero RAM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.compiled import PolicyRegistry
from repro.core.decisions import DecisionNode
from repro.core.pipeline import AccessController
from repro.core.delivery import Record, ViewMode
from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.crypto.container import (
    DocumentHeader,
    IntegrityError,
    open_blob,
    open_chunk,
)
from repro.crypto.keys import DocumentKeys
from repro.errors import DocumentLocked, ReproError
from repro.skipindex.decoder import OpenFrame, SXSDecoder
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.xmlstream.events import Event, OpenEvent
from repro.xmlstream.writer import write_string

#: Modeled RAM cost of the streaming decoder state per open level.
DECODER_FRAME_BYTES = 8

#: The :class:`~repro.core.runtime.EngineStats` counters the cycle
#: model charges.
_engine_counters = attrgetter(
    "events", "token_checks", "token_advances", "conditions_created"
)


class PendingStrategy(enum.Enum):
    """How pending subtrees are handled (experiment E10)."""

    BUFFER = "buffer"
    REFETCH = "refetch"


class AppletError(ReproError):
    """Protocol misuse or security violation inside the applet."""


@dataclass(slots=True)
class RefetchRequest:
    """A skipped pending subtree the proxy must re-send if permitted."""

    entry_id: int
    frame: OpenFrame = field(repr=False)  # the decoder's frame of the subtree
    auth: DecisionNode = field(repr=False, default=None)  # type: ignore[assignment]
    query: DecisionNode | None = field(repr=False, default=None)
    resolved_permit: bool | None = None

    @property
    def start(self) -> int:
        """Absolute plaintext offset of the subtree content."""
        return self.frame.content_start

    @property
    def end(self) -> int:
        """Absolute plaintext offset just past the subtree."""
        return self.frame.content_start + self.frame.content_size


@dataclass(slots=True)
class ChunkResult:
    """What the applet tells the proxy after each chunk."""

    next_offset: int  # next plaintext byte the card needs
    document_done: bool
    output_available: int  # bytes currently in the output buffer


@dataclass(slots=True)
class BatchResult:
    """What the applet tells the proxy after one chunk *batch*.

    One resume offset and one output drain cover the whole batch;
    ``chunks_dropped``/``bytes_dropped`` report the speculative members
    a mid-batch skip directive made useless -- they were on the wire
    already, but the applet discards them before MAC and decryption, so
    the byte-level metrics (``bytes_decrypted``, ``bytes_skipped``)
    stay identical to the sequential path.
    """

    next_offset: int
    document_done: bool
    output_available: int
    chunks_consumed: int
    chunks_dropped: int
    bytes_dropped: int


class CardApplet:
    """One session = one (document, subject, query) evaluation."""

    def __init__(
        self,
        soe: SecureOperatingEnvironment,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.soe = soe
        self.default_strategy = strategy
        self.view_mode = view_mode
        # Engine-charge constants in ``_engine_counters`` order, read
        # once (the cost model is frozen for the card's lifetime).
        cost = soe.cost
        self._engine_costs = (
            cost.cycles_per_event,
            cost.cycles_per_token_check,
            cost.cycles_per_token_advance,
            cost.cycles_per_condition,
        )
        # The compiled-automata store: rules are compiled once when
        # first seen (the paper compiles on rule upload) and reused by
        # every later session with the same policy.  It survives
        # session resets, like the automata stored in EEPROM would.
        self.registry = registry if registry is not None else PolicyRegistry()
        # The card's RAM between sessions: a session's automata,
        # decoder, engine, decision and pending charges all return to
        # it when the session ends or is reset.
        self._idle_ram = soe.memory.breakdown()
        self._reset_session()

    def use_registry(self, registry: PolicyRegistry) -> None:
        """Swap in a shared compiled-policy cache.

        Takes effect on the next session's policy compilation; the
        current session's controller (if any) keeps its automata.
        """
        self.registry = registry

    def _reset_session(self) -> None:
        self.soe.memory.release_to(self._idle_ram)
        self._subject: str | None = None
        self._groups: frozenset[str] = frozenset()
        self._doc_id: str | None = None
        self._query: str | None = None
        self._strategy = self.default_strategy
        self._keys: DocumentKeys | None = None
        self._header: DocumentHeader | None = None
        self._rules = RuleSet()
        self._controller: AccessController | None = None
        self._decoder: SXSDecoder | None = None
        self._output = bytearray()
        self._refetches: list[RefetchRequest] = []
        self._active_refetch: RefetchRequest | None = None
        self._refetch_decoder: SXSDecoder | None = None
        self._document_done = False
        self._automata_ram = 0
        self._decoder_ram = 0
        self._decoder_charged = 0
        # chunk-batch bookkeeping (PUT_CHUNK_BATCH)
        self._batch_consumed = 0
        self._batch_dropped = 0
        self._batch_dropped_bytes = 0
        # metrics
        self.bytes_decrypted = 0
        self.bytes_skipped = 0
        self.output_bytes_total = 0
        self._stats_snapshot = (0, 0, 0, 0)

    # -- session setup -----------------------------------------------------

    def begin_session(
        self,
        doc_id: str,
        subject: str,
        query: str | None = None,
        strategy: PendingStrategy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> None:
        """Start a session; the document secret must be provisioned.

        ``groups`` lists the roles the subject holds (e.g. a user who
        is both ``doctor`` and ``staff``); rules written for any of
        them apply.  On a real deployment the card would authenticate
        the role claims against certificates stored at
        personalization; the simulation takes them as given.
        """
        self._reset_session()
        if doc_id not in self.soe.keyring:
            raise DocumentLocked(
                f"no key provisioned for document {doc_id!r} "
                f"(subject {subject!r})",
                doc_id=doc_id,
                subject=subject,
            )
        self._doc_id = doc_id
        self._subject = subject
        self._groups = groups
        self._query = query
        if strategy is not None:
            self._strategy = strategy
        self._keys = self.soe.keys_for(doc_id)

    def put_header(self, header: DocumentHeader) -> None:
        """Verify the container header and enforce version freshness."""
        if self._keys is None or self._doc_id is None:
            raise AppletError("no session in progress")
        if header.doc_id != self._doc_id:
            raise IntegrityError("header is for a different document")
        self.soe.charge_mac(32 + len(header.payload()))
        header.verify(self._keys)
        register = self.soe.version_register(self._doc_id)
        if header.version < register:
            raise IntegrityError(
                f"version replay: got {header.version}, register at {register}"
            )
        self.soe.advance_version_register(self._doc_id, header.version)
        self._header = header

    def put_rule_record(self, index: int, version: int, blob: bytes) -> None:
        """Decrypt, verify and compile one access-rule record.

        Records are sealed individually (``doc#rule:<index>``) so the
        card never holds the whole policy in RAM -- each record is
        parsed, compiled into its automaton, and released.
        """
        if self._keys is None or self._header is None:
            raise AppletError("header must be verified before rules")
        self.soe.charge_mac(len(blob))
        self.soe.charge_decrypt(len(blob))
        label = f"{self._doc_id}#rule:{index}"
        plaintext = open_blob(blob, label, version, self._keys)
        text = plaintext.decode("utf-8")
        sign_text, subject, xpath = text.split("|", 2)
        rule = AccessRule.parse(
            Sign(sign_text), subject, xpath, rule_id=f"{self._doc_id}:{index}"
        )
        self._rules.add(rule)

    def _ensure_controller(self) -> AccessController:
        if self._controller is None:
            assert self._subject is not None
            subject_rules = self._rules.for_subject(
                Subject(self._subject, self._groups)
            )
            policy = self.registry.get(subject_rules)
            compiled_query = (
                self.registry.get_query(self._query)
                if self._query is not None
                else None
            )
            self._controller = AccessController(
                policy,
                query=compiled_query,
                mode=self.view_mode,
                memory=self.soe.memory,
            )
            # Charge the compiled automata to secure RAM -- straight
            # from the compiled artifact, no recompilation.
            self._automata_ram = policy.ram_bytes
            if compiled_query is not None:
                self._automata_ram += compiled_query.ram_bytes
            self.soe.memory.allocate("automata", self._automata_ram)
            self._decoder = SXSDecoder()
        return self._controller

    # -- document streaming -----------------------------------------------------

    def put_chunk(self, index: int, blob: bytes) -> ChunkResult:
        """Verify, decrypt and process one document chunk."""
        decoder = self._consume_chunk(index, blob)
        return ChunkResult(
            next_offset=decoder.next_needed_offset,
            document_done=decoder.document_done,
            output_available=len(self._output),
        )

    def _consume_chunk(self, index: int, blob: bytes) -> SXSDecoder:
        """Verify, decrypt and pump one chunk of the main pass."""
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        controller = self._controller
        if controller is None:
            controller = self._ensure_controller()
        decoder = self._decoder
        assert decoder is not None
        decoder.push(self._open_chunk(index, blob), index * self._header.chunk_size)
        self._pump(controller, decoder)
        return decoder

    def _open_chunk(self, index: int, blob: bytes) -> bytes:
        """Verify and decrypt one chunk, charging its MAC and decryption."""
        header = self._header
        assert header is not None and self._keys is not None
        self.soe.charge_mac(len(blob))
        plaintext = open_chunk(header, index, blob, self._keys)
        self.soe.charge_decrypt(len(blob) - header.tag_length)
        self.bytes_decrypted += len(plaintext)
        return plaintext

    # -- chunk batches (PUT_CHUNK_BATCH) ---------------------------------

    def begin_chunk_batch(self) -> None:
        """Open a batch: members follow, one result closes it."""
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        self._batch_consumed = 0
        self._batch_dropped = 0
        self._batch_dropped_bytes = 0

    def put_batch_member(self, index: int, blob: bytes) -> None:
        """Process one batch member, or drop it if a skip outran it.

        A member whose plaintext range lies entirely before the
        decoder's next needed offset (a skip directive raised by an
        earlier member of the same batch) is discarded *before* MAC
        verification and decryption: the sequential path would never
        have transmitted it, so neither accounting path may charge it.
        """
        if self._header is None:
            raise AppletError("header must be verified before chunks")
        if self._decoder is not None:
            chunk_end = (index + 1) * self._header.chunk_size
            if self._decoder.document_done or (
                chunk_end <= self._decoder.next_needed_offset
            ):
                self._batch_dropped += 1
                self._batch_dropped_bytes += len(blob)
                return
        self._consume_chunk(index, blob)
        self._batch_consumed += 1

    def end_chunk_batch(self) -> BatchResult:
        """Close the batch; one resume offset for all its members."""
        if self._decoder is None:
            raise AppletError("empty chunk batch")
        return BatchResult(
            next_offset=self._decoder.next_needed_offset,
            document_done=self._decoder.document_done,
            output_available=len(self._output),
            chunks_consumed=self._batch_consumed,
            chunks_dropped=self._batch_dropped,
            bytes_dropped=self._batch_dropped_bytes,
        )

    def _emit(self, events: list[Event]) -> None:
        if not events:
            return
        text = write_string(events).encode("utf-8")
        self.soe.charge_output(len(text))
        self.output_bytes_total += len(text)
        self._output.extend(text)

    def _pump(self, controller: AccessController, decoder: SXSDecoder) -> None:
        """Drain every decodable item through the evaluator.

        Per item the loop makes two Python calls, ``next_item`` and
        ``feed``; the decoder's frame stack and the controller's delivery
        records, which give an open's depth, skip metadata and delivery
        kind, are read into locals once per pump.  The released events
        are serialized in one ``_emit``, and the engine work (the
        ``EngineStats`` delta) and the decoded bytes are charged once per
        chunk -- integer cycle sums do not depend on how they are split.
        Decoder RAM is checked after opens only, the one item that
        deepens the stack.  An open leaves the loop for
        :meth:`_maybe_skip` only when the stream carries an index and the
        element is dropped, or pending under ``PendingStrategy.REFETCH``.
        If an item faults (a strict-RAM overflow), the items before it
        keep the charges a per-item pump made: their output and engine
        work, and no decode charge.
        """
        next_item = decoder.next_item
        feed = controller.feed
        frames = decoder.frames
        records = controller.records
        deliver = Record.DELIVER
        # Under BUFFER a pending open is never skipped, only buffered.
        skip_pending = self._strategy is PendingStrategy.REFETCH
        pending = Record.PENDING
        stats = controller.stats
        allocate = self.soe.memory.allocate
        decoder_ram = self._decoder_ram
        settled = _engine_counters(stats)
        released: list[Event] = []
        try:
            while (event := next_item()) is not None:
                if type(event) is OpenEvent:
                    needed = len(frames) * DECODER_FRAME_BYTES
                    if needed > decoder_ram:
                        allocate("decoder", needed - decoder_ram)
                        decoder_ram = self._decoder_ram = needed
                    released += feed(event)
                    frame = frames[-1]
                    if frame.content_size is not None:
                        kind = records[-1].kind
                        if kind != deliver and (skip_pending or kind != pending):
                            self._maybe_skip(controller, decoder, frame, kind)
                else:
                    released += feed(event)
                settled = _engine_counters(stats)
        finally:
            self._emit(released)
            # The engine work counted since the last charge.
            cycles = 0
            for now, before, cost in zip(settled, self._stats_snapshot, self._engine_costs):
                cycles += (now - before) * cost
            self.soe.charge_cycles(cycles)
            self._stats_snapshot = settled
        decoded = decoder.bytes_decoded
        self.soe.charge_decode(decoded - self._decoder_charged)
        self._decoder_charged = decoded

    def _maybe_skip(
        self,
        controller: AccessController,
        decoder: SXSDecoder,
        frame: OpenFrame,
        kind: str,
    ) -> None:
        """Apply the skip rule of Section 2.3 to a freshly opened subtree.

        ``frame`` is the decoder's innermost frame, indexed, and ``kind``
        its delivery kind: DROP, or PENDING under the REFETCH strategy;
        its tag ids are decoded, and become names, only here.
        """
        assert decoder.dictionary is not None and frame.tags_inside is not None
        tags_inside = decoder.dictionary.ids_to_names(frame.tags_inside)
        if not controller.subtree_is_irrelevant(tags_inside):
            return
        if kind == Record.PENDING:
            auth, query = controller.current_decision_nodes()
            self._refetches.append(
                RefetchRequest(len(self._refetches), frame, auth, query)
            )
        resume = decoder.skip_open_subtree()
        self.bytes_skipped += resume - frame.content_start

    def end_document(self) -> list[RefetchRequest]:
        """Finish the main pass; return the refetches resolved to PERMIT."""
        if self._controller is None or self._decoder is None:
            raise AppletError("no document streamed")
        if not self._decoder.document_done:
            raise IntegrityError("document truncated (structure incomplete)")
        self._emit(self._controller.finish())
        self._document_done = True
        granted: list[RefetchRequest] = []
        for entry in self._refetches:
            kind, _ = self._controller.status_of(entry.auth, entry.query)
            entry.resolved_permit = kind == Record.DELIVER
            if entry.resolved_permit:
                granted.append(entry)
        # The main pass is over: a refetch replays raw bytes only.
        self.soe.memory.release_to(self._idle_ram)
        return granted

    # -- refetch pass -----------------------------------------------------------

    def begin_refetch(self, entry_id: int) -> None:
        """Start re-receiving one granted pending subtree."""
        if not self._document_done:
            raise AppletError("refetch only after the main pass")
        entry = self._refetches[entry_id]
        if not entry.resolved_permit:
            raise AppletError("subtree was not granted")
        assert self._decoder is not None and self._decoder.dictionary is not None
        self._active_refetch = entry
        self._refetch_decoder = SXSDecoder.for_region(
            self._decoder.dictionary, self._decoder.mode, entry.frame
        )

    def put_refetch_chunk(self, index: int, blob: bytes) -> ChunkResult:
        """Process one chunk of the refetched byte range."""
        if self._refetch_decoder is None or self._header is None:
            raise AppletError("no refetch in progress")
        assert self._active_refetch is not None
        decoder = self._refetch_decoder
        decoder.push(self._open_chunk(index, blob), index * self._header.chunk_size)
        events: list[Event] = []
        while (event := decoder.next_item()) is not None:
            if decoder.document_done:
                break  # the subtree's own close: the shell already has it
            events.append(event)
        self._emit(events)
        done = decoder.document_done
        next_offset = 0 if done else decoder.next_needed_offset
        if done:
            self._active_refetch = None
            self._refetch_decoder = None
        return ChunkResult(
            next_offset=next_offset,
            document_done=done,
            output_available=len(self._output),
        )

    # -- output -------------------------------------------------------------------

    def read_output(self, limit: int = 256) -> bytes:
        """Drain up to ``limit`` bytes of authorized output.

        One copy, not two: the seed sliced the bytearray (copy) and
        re-wrapped it in ``bytes`` (copy).  The temporary view is
        released before ``del`` resizes the buffer.
        """
        piece = bytes(memoryview(self._output)[:limit])
        del self._output[:limit]
        return piece

    @property
    def output_pending(self) -> int:
        return len(self._output)

    @property
    def engine_stats(self):
        """The session's evaluator counters (``None`` pre-controller)."""
        if self._controller is None:
            return None
        return self._controller.stats

    @property
    def max_pending_bytes(self) -> int:
        if self._controller is None:
            return 0
        return self._controller.max_pending_bytes
