"""The smart card: APDU dispatcher around the applet.

Maps :class:`~repro.smartcard.apdu.CommandAPDU` units onto applet calls
and packs results into response payloads.  Every security failure
surfaces as an ISO status word, never as a Python exception crossing
the card boundary -- the proxy decides how to react, exactly like a
terminal application would.
"""

from __future__ import annotations

import struct

from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.crypto.container import DocumentHeader
from repro.errors import DocumentLocked, ResourceExhausted, TamperDetected
from repro.smartcard.apdu import (
    BATCH_FINAL,
    BATCH_SUMMARY,
    RESPONSE_OK,
    BatchAssembler,
    CommandAPDU,
    Instruction,
    ResponseAPDU,
    StatusWord,
)
from repro.smartcard.applet import AppletError, CardApplet, PendingStrategy
from repro.smartcard.secure_channel import (
    OP_PROVISION_KEY,
    OP_REVOKE_KEY,
    OP_SET_VERSION,
    CardSecureChannel,
)
from repro.smartcard.soe import SecureOperatingEnvironment

_FLAG_HAS_QUERY = 0x01
_FLAG_REFETCH = 0x02
_FLAG_PRUNE = 0x04

_ENTRIES_PER_PAGE = 13  # 2 + 13*18 = 236 bytes <= 256


def encode_header(header: DocumentHeader) -> bytes:
    """Serialize a container header for PUT_HEADER."""
    doc = header.doc_id.encode("utf-8")
    return (
        bytes([len(doc)])
        + doc
        + struct.pack(
            ">QIIQB",
            header.version,
            header.chunk_size,
            header.chunk_count,
            header.total_length,
            header.tag_length,
        )
        + header.tag
    )


def encode_groups(groups: frozenset[str]) -> bytes:
    """Serialize a subject's group set for BEGIN_SESSION.

    The card parses this ``[count][len g1]g1[len g2]g2...`` block in
    :meth:`SmartCard._begin_session`; :func:`encode_session_open`
    appends it.  Empty group sets encode to nothing.
    """
    if not groups:
        return b""
    payload = bytes([len(groups)])
    for group in sorted(groups):
        raw = group.encode("utf-8")
        payload += bytes([len(raw)]) + raw
    return payload


def encode_session_open(
    doc_id: str,
    subject: str,
    query: str | None = None,
    strategy: PendingStrategy = PendingStrategy.BUFFER,
    view_mode: ViewMode = ViewMode.SKELETON,
    groups: frozenset[str] = frozenset(),
) -> bytes:
    """Serialize a BEGIN_SESSION payload.

    ``[flags][len doc]doc[len subject]subject``, then the query
    (``u16`` length + text) when ``_FLAG_HAS_QUERY`` is set, then the
    :func:`encode_groups` block.  :meth:`SmartCard._begin_session` is
    the matching decoder.
    """
    flags = 0
    payload = b""
    if query is not None:
        flags |= _FLAG_HAS_QUERY
        raw = query.encode("utf-8")
        payload = struct.pack(">H", len(raw)) + raw
    if strategy is PendingStrategy.REFETCH:
        flags |= _FLAG_REFETCH
    if view_mode is ViewMode.PRUNE:
        flags |= _FLAG_PRUNE
    doc = doc_id.encode("utf-8")
    subj = subject.encode("utf-8")
    return (
        bytes([flags, len(doc)])
        + doc
        + bytes([len(subj)])
        + subj
        + payload
        + encode_groups(groups)
    )


def decode_header(data: bytes) -> DocumentHeader:
    """Parse a PUT_HEADER payload."""
    doc_len = data[0]
    doc_id = data[1:1 + doc_len].decode("utf-8")
    fixed = data[1 + doc_len:1 + doc_len + 25]
    version, chunk_size, chunk_count, total_length, tag_length = struct.unpack(
        ">QIIQB", fixed
    )
    tag = data[1 + doc_len + 25:]
    if len(tag) != tag_length:
        raise ValueError("header tag length mismatch")
    return DocumentHeader(
        doc_id=doc_id,
        version=version,
        chunk_size=chunk_size,
        chunk_count=chunk_count,
        total_length=total_length,
        tag_length=tag_length,
        tag=tag,
    )


class SmartCard:
    """A card with one access-control applet installed.

    Passing ``admin_key`` *personalizes* the card: plaintext key
    provisioning is refused and every administrative change must come
    through the authenticated secure channel
    (:mod:`repro.smartcard.secure_channel`).
    """

    def __init__(
        self,
        soe: SecureOperatingEnvironment | None = None,
        strategy: PendingStrategy = PendingStrategy.BUFFER,
        view_mode: ViewMode = ViewMode.SKELETON,
        admin_key: bytes | None = None,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.soe = soe or SecureOperatingEnvironment()
        self.applet = CardApplet(
            self.soe, strategy=strategy, view_mode=view_mode, registry=registry
        )
        self._selected = False
        self._refetch_entries: list = []
        self._batch = BatchAssembler()
        self._batch_open = False
        self._secure_channel = (
            CardSecureChannel(admin_key) if admin_key is not None else None
        )

    def use_registry(self, registry: PolicyRegistry) -> None:
        """Point the applet at a shared compiled-policy cache."""
        self.applet.use_registry(registry)

    # -- dispatch ------------------------------------------------------------

    def process(self, command: CommandAPDU) -> ResponseAPDU:
        """Execute one APDU; security failures become status words.

        The ladder maps the :mod:`repro.errors` taxonomy onto ISO
        status words: tamper evidence (:class:`IntegrityError`,
        :class:`SecureChannelError`) -> ``0x6982``, resource exhaustion
        (:class:`CardMemoryError`) -> ``0x6581``, protocol misuse and
        missing keys -> ``0x6985``, malformed payloads -> ``0x6A80``.
        """
        try:
            return self._dispatch(command)
        except TamperDetected:
            self._abort_batch()
            return ResponseAPDU(StatusWord.SECURITY_STATUS_NOT_SATISFIED)
        except ResourceExhausted:
            self._abort_batch()
            return ResponseAPDU(StatusWord.MEMORY_FAILURE)
        except (AppletError, DocumentLocked):
            self._abort_batch()
            return ResponseAPDU(StatusWord.CONDITIONS_NOT_SATISFIED)
        except (ValueError, KeyError, IndexError, struct.error):
            self._abort_batch()
            return ResponseAPDU(StatusWord.WRONG_DATA)

    def _abort_batch(self) -> None:
        """Drop a half-assembled chunk batch after any failure."""
        self._batch.reset()
        self._batch_open = False

    #: Instruction -> unbound handler, built once (the dispatcher used
    #: to rebuild this mapping per APDU).
    _HANDLERS: "dict[Instruction, str]" = {
        Instruction.BEGIN_SESSION: "_begin_session",
        Instruction.PUT_HEADER: "_put_header",
        Instruction.PUT_RULES: "_put_rule",
        Instruction.PUT_CHUNK: "_put_chunk",
        Instruction.PUT_CHUNK_BATCH: "_put_chunk_batch",
        Instruction.END_DOCUMENT: "_end_document",
        Instruction.GET_OUTPUT: "_get_output",
        Instruction.BEGIN_REFETCH: "_begin_refetch",
        Instruction.PUT_REFETCH_CHUNK: "_put_refetch_chunk",
        Instruction.ADMIN_PROVISION_KEY: "_provision_key",
        Instruction.SC_OPEN: "_sc_open",
        Instruction.SC_ADMIN: "_sc_admin",
        Instruction.GET_STATUS: "_get_status",
    }

    def _dispatch(self, command: CommandAPDU) -> ResponseAPDU:
        ins = command.ins
        if ins == Instruction.SELECT:
            self._selected = True
            return RESPONSE_OK
        if not self._selected:
            return ResponseAPDU(StatusWord.CONDITIONS_NOT_SATISFIED)
        name = self._HANDLERS.get(ins)
        if name is None:
            return ResponseAPDU(StatusWord.INS_NOT_SUPPORTED)
        return getattr(self, name)(command)

    # -- handlers ---------------------------------------------------------------

    def _begin_session(self, command: CommandAPDU) -> ResponseAPDU:
        self._abort_batch()
        data = command.data
        flags = data[0]
        offset = 1
        doc_len = data[offset]
        doc_id = data[offset + 1:offset + 1 + doc_len].decode("utf-8")
        offset += 1 + doc_len
        subject_len = data[offset]
        subject = data[offset + 1:offset + 1 + subject_len].decode("utf-8")
        offset += 1 + subject_len
        query = None
        if flags & _FLAG_HAS_QUERY:
            query_len = struct.unpack(">H", data[offset:offset + 2])[0]
            query = data[offset + 2:offset + 2 + query_len].decode("utf-8")
            offset += 2 + query_len
        groups: set[str] = set()
        if offset < len(data):
            group_count = data[offset]
            offset += 1
            for __ in range(group_count):
                group_len = data[offset]
                groups.add(
                    data[offset + 1:offset + 1 + group_len].decode("utf-8")
                )
                offset += 1 + group_len
        strategy = (
            PendingStrategy.REFETCH
            if flags & _FLAG_REFETCH
            else PendingStrategy.BUFFER
        )
        self.applet.view_mode = (
            ViewMode.PRUNE if flags & _FLAG_PRUNE else ViewMode.SKELETON
        )
        self.applet.begin_session(
            doc_id,
            subject,
            query=query,
            strategy=strategy,
            groups=frozenset(groups),
        )
        return RESPONSE_OK

    def _put_header(self, command: CommandAPDU) -> ResponseAPDU:
        self.applet.put_header(decode_header(command.data))
        return RESPONSE_OK

    def _put_rule(self, command: CommandAPDU) -> ResponseAPDU:
        index = (command.p1 << 8) | command.p2
        version = struct.unpack(">Q", command.data[:8])[0]
        self.applet.put_rule_record(index, version, command.data[8:])
        return RESPONSE_OK

    def _chunk_response(self, result) -> ResponseAPDU:
        payload = struct.pack(">QB", result.next_offset, int(result.document_done))
        sw = (
            StatusWord.MORE_OUTPUT
            if result.output_available
            else StatusWord.OK
        )
        return ResponseAPDU(sw, payload)

    def _put_chunk(self, command: CommandAPDU) -> ResponseAPDU:
        index = (command.p1 << 8) | command.p2
        return self._chunk_response(self.applet.put_chunk(index, command.data))

    def _put_chunk_batch(self, command: CommandAPDU) -> ResponseAPDU:
        """One frame of a multi-chunk batch (P1 bit 0 marks the last).

        Records completed by this frame are processed immediately, so
        the staging area never holds more than an unfinished record --
        the secure-RAM accounting is exactly the sequential path's.
        Only the final frame answers with the batch summary
        ``next_offset:u64 done:u8 consumed:u16 dropped:u16
        dropped_bytes:u32``; intermediate frames return a bare OK.  The
        response APDU's remaining capacity piggybacks the first slice
        of authorized output, sparing one GET_OUTPUT round trip per
        batch; MORE_OUTPUT signals whatever did not fit.
        """
        if not self._batch_open:
            self.applet.begin_chunk_batch()
            self._batch.reset()
            self._batch_open = True
        for index, blob in self._batch.feed(command.data):
            self.applet.put_batch_member(index, blob)
        if not command.p1 & BATCH_FINAL:
            return RESPONSE_OK
        if self._batch.residue:
            self._abort_batch()
            return ResponseAPDU(StatusWord.WRONG_DATA)
        self._batch_open = False
        result = self.applet.end_chunk_batch()
        payload = struct.pack(
            BATCH_SUMMARY,
            result.next_offset,
            int(result.document_done),
            result.chunks_consumed,
            result.chunks_dropped,
            result.bytes_dropped,
        )
        payload += self.applet.read_output(256 - len(payload))
        sw = (
            StatusWord.MORE_OUTPUT
            if self.applet.output_pending
            else StatusWord.OK
        )
        return ResponseAPDU(sw, payload)

    def _end_document(self, command: CommandAPDU) -> ResponseAPDU:
        page = command.p1
        if page == 0:
            self._refetch_entries = self.applet.end_document()
        entries = self._refetch_entries
        start = page * _ENTRIES_PER_PAGE
        chunk = entries[start:start + _ENTRIES_PER_PAGE]
        payload = struct.pack(">H", len(entries))
        for entry in chunk:
            payload += struct.pack(">HQQ", entry.entry_id, entry.start, entry.end)
        sw = (
            StatusWord.MORE_OUTPUT
            if self.applet.output_pending
            else StatusWord.OK
        )
        return ResponseAPDU(sw, payload)

    def _get_output(self, command: CommandAPDU) -> ResponseAPDU:
        piece = self.applet.read_output(254)
        sw = StatusWord.MORE_OUTPUT if self.applet.output_pending else StatusWord.OK
        return ResponseAPDU(sw, piece)

    def _begin_refetch(self, command: CommandAPDU) -> ResponseAPDU:
        entry_id = (command.p1 << 8) | command.p2
        self.applet.begin_refetch(entry_id)
        return RESPONSE_OK

    def _put_refetch_chunk(self, command: CommandAPDU) -> ResponseAPDU:
        index = (command.p1 << 8) | command.p2
        return self._chunk_response(
            self.applet.put_refetch_chunk(index, command.data)
        )

    def _provision_key(self, command: CommandAPDU) -> ResponseAPDU:
        if self._secure_channel is not None:
            # Personalized card: plaintext provisioning is disabled.
            return ResponseAPDU(StatusWord.SECURITY_STATUS_NOT_SATISFIED)
        doc_len = command.data[0]
        doc_id = command.data[1:1 + doc_len].decode("utf-8")
        secret = command.data[1 + doc_len:]
        self.soe.provision_key(doc_id, secret)
        return RESPONSE_OK

    def _sc_open(self, command: CommandAPDU) -> ResponseAPDU:
        if self._secure_channel is None:
            return ResponseAPDU(StatusWord.CONDITIONS_NOT_SATISFIED)
        card_challenge, cryptogram = self._secure_channel.open(command.data)
        return ResponseAPDU(StatusWord.OK, card_challenge + cryptogram)

    def _sc_admin(self, command: CommandAPDU) -> ResponseAPDU:
        if self._secure_channel is None:
            return ResponseAPDU(StatusWord.CONDITIONS_NOT_SATISFIED)
        opcode, payload = self._secure_channel.unwrap(command.data)
        doc_len = payload[0]
        doc_id = payload[1:1 + doc_len].decode("utf-8")
        rest = payload[1 + doc_len:]
        if opcode == OP_PROVISION_KEY:
            self.soe.provision_key(doc_id, rest)
        elif opcode == OP_SET_VERSION:
            version = int.from_bytes(rest[:8], "big")
            self.soe.admin_set_version_register(doc_id, version)
        elif opcode == OP_REVOKE_KEY:
            self.soe.revoke_key(doc_id)
        else:
            return ResponseAPDU(StatusWord.WRONG_DATA)
        return RESPONSE_OK

    def _get_status(self, command: CommandAPDU) -> ResponseAPDU:
        payload = struct.pack(
            ">IQQQ",
            self.soe.memory.high_water,
            int(self.soe.cycles_used),
            self.applet.bytes_decrypted,
            self.applet.bytes_skipped,
        )
        return ResponseAPDU(StatusWord.OK, payload)
