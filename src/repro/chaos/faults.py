"""Injection wrappers at every trust seam of the system.

Each wrapper delegates to a real component and consults a shared
:class:`~repro.chaos.plan.FaultPlan` before every intercepted
operation.  The wrappers sit exactly where the paper draws its trust
boundaries:

* :class:`FaultyBackend` -- the DSP's *disk* (any
  :class:`~repro.dsp.backends.StoreBackend`): failed reads, stale
  reads, torn writes, and crash-then-reopen for durable backends;
* :class:`FaultyClient` -- the terminal's *network* view of the DSP
  (any :class:`~repro.dsp.client.DSPClient`): failed requests plus a
  ``before`` hook scenarios use to race mutations against an
  in-flight pull;
* :class:`FaultySocket` -- the raw *transport* under
  :class:`~repro.dsp.remote.RemoteDSP`: mid-frame disconnects,
  truncation, byte corruption, stalls past the deadline;
* :class:`FaultyCard` -- the *card* boundary: resource exhaustion and
  tamper status words injected mid-session.

Every injected failure is an exception (or status word) the production
stack already maps into the :mod:`repro.errors` taxonomy; the chaos
suite's invariant is that nothing else ever escapes.
"""

from __future__ import annotations

from typing import Callable

from repro.chaos.plan import FaultPlan, FaultRule
from repro.crypto.container import DocumentContainer, DocumentHeader
from repro.dsp.backends import SQLiteBackend, StoreBackend, StoredDocument
from repro.dsp.client import DSPClient
from repro.dsp.wire import DocMeta
from repro.errors import PolicyError, TransportError
from repro.smartcard.apdu import CommandAPDU, ResponseAPDU, StatusWord
from repro.smartcard.card import SmartCard
from repro.smartcard.resources import SimClock

__all__ = [
    "FaultyBackend",
    "FaultyCard",
    "FaultyClient",
    "FaultySocket",
    "InjectedFault",
    "crash_reopen",
]


class InjectedFault(TransportError):
    """An injected infrastructure failure (still a ``TransportError``).

    Distinguishable in tests (``isinstance(exc, InjectedFault)``) while
    remaining inside the taxonomy contract callers program against.
    """


def _injected(site: str, rule: FaultRule) -> InjectedFault:
    return InjectedFault(f"injected {rule.kind} at {site}")


def crash_reopen(backend: StoreBackend) -> StoreBackend:
    """Simulate a process crash: drop the handle, reopen from disk.

    Only durable backends survive: a :class:`SQLiteBackend` reopens
    from its file (exercising WAL recovery), and a
    :class:`FaultyBackend` crash-reopens its inner backend in place.
    Volatile backends raise :class:`~repro.errors.PolicyError` --
    there is nothing to recover.
    """
    if isinstance(backend, SQLiteBackend):
        path = backend.path
        backend.close()
        return SQLiteBackend(path)
    if isinstance(backend, FaultyBackend):
        backend.crash()
        return backend
    raise PolicyError(
        f"{type(backend).__name__} is volatile; a crash loses it entirely"
    )


class FaultyBackend:
    """Wraps any :class:`StoreBackend` with plan-driven faults.

    Sites and the kinds they honour:

    * ``backend.get`` -- ``"fail"`` raises :class:`InjectedFault`;
      ``"stale"`` returns the *previous* snapshot of the document (a
      consistent but outdated read, the classic replay an untrusted
      store can mount); ``"delay"`` charges ``delay_seconds`` to the
      clock's ``chaos`` component (no wall sleep).
    * ``backend.put_document`` -- ``"fail"`` raises before writing;
      ``"torn"`` persists a container whose final chunk is truncated,
      then raises to the writer -- the durable state is damaged the
      way a half-applied write damages it, and any reader session must
      end in :class:`~repro.errors.TamperDetected` (chunk MAC) or
      :class:`~repro.errors.TransportError` (missing chunk), never a
      partial view.
    * ``backend.put_rules`` / ``backend.put_wrapped_key`` /
      ``backend.remove_wrapped_key`` -- ``"fail"`` raises before the
      mutation.

    :meth:`crash` closes and reopens a durable inner backend in place
    (the wrapper keeps its identity, so a :class:`~repro.dsp.store.DSPStore`
    holding it sees the recovered state).
    """

    def __init__(
        self,
        inner: StoreBackend,
        plan: FaultPlan,
        *,
        clock: SimClock | None = None,
        delay_seconds: float = 0.05,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.clock = clock
        self.delay_seconds = delay_seconds
        self._previous: dict[str, StoredDocument] = {}

    # -- fault helpers -----------------------------------------------------

    def _charge_delay(self) -> None:
        if self.clock is not None:
            self.clock.add("chaos", self.delay_seconds)

    @staticmethod
    def _tear(container: DocumentContainer) -> DocumentContainer:
        chunks = list(container.chunks)
        if chunks:
            last = chunks[-1]
            chunks[-1] = last[: max(0, len(last) // 2)]
        return DocumentContainer(header=container.header, chunks=tuple(chunks))

    # -- StoreBackend ------------------------------------------------------

    def put_document(
        self,
        container: DocumentContainer,
        *,
        keep_rules: bool = False,
        keep_keys: bool = False,
    ) -> None:
        site = "backend.put_document"
        rule = self.plan.decide(site)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)
        if rule is not None and rule.kind == "torn":
            # A half-applied overwrite: the damaged container lands,
            # but the old rule records and grants survive (the clean
            # path clears them as part of the same logical write).
            # Readers therefore walk into the truncated chunk instead
            # of bouncing off an empty deny-all policy.
            self.inner.put_document(
                self._tear(container), keep_rules=True, keep_keys=True
            )
            raise _injected(site, rule)
        if rule is not None and rule.kind == "delay":
            self._charge_delay()
        self.inner.put_document(
            container, keep_rules=keep_rules, keep_keys=keep_keys
        )

    def get(self, doc_id: str) -> StoredDocument:
        site = "backend.get"
        rule = self.plan.decide(site)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)
        if rule is not None and rule.kind == "stale":
            stale = self._previous.get(doc_id)
            if stale is not None:
                return stale
        if rule is not None and rule.kind == "delay":
            self._charge_delay()
        stored = self.inner.get(doc_id)
        # Remember the last *live* snapshot so a later "stale" fault
        # serves a consistent old version, not a fabricated mix.
        self._previous[doc_id] = StoredDocument(
            container=stored.container,
            rule_records=list(stored.rule_records),
            rules_version=stored.rules_version,
            wrapped_keys=dict(stored.wrapped_keys),
        )
        return stored

    def put_rules(self, doc_id: str, records: list[bytes], version: int) -> None:
        site = "backend.put_rules"
        rule = self.plan.decide(site)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)
        self.inner.put_rules(doc_id, records, version)

    def put_wrapped_key(self, doc_id: str, recipient: str, blob: bytes) -> None:
        site = "backend.put_wrapped_key"
        rule = self.plan.decide(site)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)
        self.inner.put_wrapped_key(doc_id, recipient, blob)

    def remove_wrapped_key(self, doc_id: str, recipient: str) -> bool:
        site = "backend.remove_wrapped_key"
        rule = self.plan.decide(site)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)
        return self.inner.remove_wrapped_key(doc_id, recipient)

    def document_ids(self) -> list[str]:
        return self.inner.document_ids()

    def contains(self, doc_id: str) -> bool:
        return self.inner.contains(doc_id)

    def close(self) -> None:
        self.inner.close()

    # -- crash -------------------------------------------------------------

    def crash(self) -> None:
        """Crash-reopen the inner backend in place (durable inners only)."""
        self.inner = crash_reopen(self.inner)
        self._previous.clear()


class FaultyClient:
    """Wraps any :class:`DSPClient` with plan-driven request faults.

    Sites ``client.get_header`` / ``client.get_chunk`` /
    ``client.get_chunk_range`` / ``client.get_rules`` /
    ``client.get_wrapped_key`` / ``client.get_meta`` honour ``"fail"``
    (raises
    :class:`InjectedFault` before the request leaves).  The ``before``
    hook -- called as ``before(site, index)`` ahead of every delegated
    request -- is how scenarios race a mutation (republish, revoke)
    against a precise point of an in-flight pull.
    """

    def __init__(
        self,
        inner: DSPClient,
        plan: FaultPlan,
        *,
        before: "Callable[[str, int], None] | None" = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.before = before
        self.clock = inner.clock

    def _gate(self, site: str) -> None:
        index = self.plan.operations(site)
        rule = self.plan.decide(site)
        if self.before is not None:
            self.before(site, index)
        if rule is not None and rule.kind == "fail":
            raise _injected(site, rule)

    def get_header(self, doc_id: str) -> DocumentHeader:
        self._gate("client.get_header")
        return self.inner.get_header(doc_id)

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        self._gate("client.get_chunk")
        return self.inner.get_chunk(doc_id, index)

    def get_chunk_range(self, doc_id: str, start: int, count: int) -> list[bytes]:
        self._gate("client.get_chunk_range")
        return self.inner.get_chunk_range(doc_id, start, count)

    def get_rules(self, doc_id: str) -> tuple[int, list[bytes]]:
        self._gate("client.get_rules")
        return self.inner.get_rules(doc_id)

    def get_wrapped_key(self, doc_id: str, recipient: str) -> bytes:
        self._gate("client.get_wrapped_key")
        return self.inner.get_wrapped_key(doc_id, recipient)

    def get_meta(self, doc_id: str, subject: str) -> DocMeta:
        self._gate("client.get_meta")
        return self.inner.get_meta(doc_id, subject)


class FaultySocket:
    """Wraps a connected socket with plan-driven transport faults.

    Plugs in under :class:`~repro.dsp.remote.RemoteDSP` via its
    ``socket_wrapper`` hook, so *reconnected* sockets are wrapped too.
    Sites and kinds:

    * ``socket.send`` -- ``"disconnect"`` closes the peer and raises
      ``ConnectionResetError`` (a request that dies leaving the
      terminal).
    * ``socket.recv`` -- ``"disconnect"`` closes mid-stream (a clean
      EOF on a frame boundary or mid-frame, whatever the peer had
      sent); ``"truncate"`` delivers only half of one read, then EOF
      forever -- a response cut mid-frame; ``"corrupt"`` flips one
      byte of the read (``arg`` picks the offset, default 0);
      ``"stall"`` raises ``TimeoutError`` immediately -- the
      deterministic stand-in for a peer that stops talking until the
      socket deadline fires (no wall-clock sleep in tests).

    Only the socket surface :mod:`repro.dsp.remote` touches is
    implemented (``sendall``/``recv``/``settimeout``/``close``).
    """

    def __init__(self, sock: object, plan: FaultPlan) -> None:
        self.inner = sock
        self.plan = plan
        self._dead = False

    # -- faulted operations ------------------------------------------------

    def sendall(self, data: bytes) -> None:
        rule = self.plan.decide("socket.send")
        if rule is not None and rule.kind in ("disconnect", "reset"):
            self.close()
            raise ConnectionResetError("injected disconnect on send")
        if rule is not None and rule.kind == "stall":
            raise TimeoutError("injected stall on send outlived the deadline")
        self.inner.sendall(data)  # type: ignore[attr-defined]

    def recv(self, bufsize: int) -> bytes:
        if self._dead:
            return b""
        rule = self.plan.decide("socket.recv")
        if rule is not None and rule.kind == "disconnect":
            self.close()
            return b""
        if rule is not None and rule.kind == "stall":
            raise TimeoutError("injected stall on recv outlived the deadline")
        data: bytes = self.inner.recv(bufsize)  # type: ignore[attr-defined]
        if rule is not None and rule.kind == "truncate":
            self._dead = True
            half = data[: max(1, len(data) // 2)] if data else b""
            try:
                self.inner.close()  # type: ignore[attr-defined]
            except OSError:
                pass
            return half
        if rule is not None and rule.kind == "corrupt" and data:
            offset = rule.arg if isinstance(rule.arg, int) else 0
            offset %= len(data)
            flipped = bytes([data[offset] ^ 0xFF])
            data = data[:offset] + flipped + data[offset + 1:]
        return data

    # -- passthrough surface -----------------------------------------------

    def settimeout(self, timeout: float | None) -> None:
        self.inner.settimeout(timeout)  # type: ignore[attr-defined]

    def close(self) -> None:
        self._dead = True
        try:
            self.inner.close()  # type: ignore[attr-defined]
        except OSError:
            pass


class FaultyCard:
    """Wraps a :class:`SmartCard`, injecting hostile status words.

    Site ``card.process``: ``"exhaust"`` answers ``0x6581`` (memory
    failure -- the proxy maps it to
    :class:`~repro.terminal.cardlink.CardOutOfResources`, a
    :class:`~repro.errors.ResourceExhausted`); ``"tamper"`` answers
    ``0x6982`` (:class:`~repro.terminal.cardlink.CardTampered`, a
    :class:`~repro.errors.TamperDetected`).  Every other attribute
    (``soe``, ``applet``, ``use_registry``) delegates, so the wrapper
    drops under :class:`~repro.terminal.cardlink.CardLink` unchanged.
    """

    def __init__(self, inner: SmartCard, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def process(self, command: CommandAPDU) -> ResponseAPDU:
        rule = self.plan.decide("card.process")
        if rule is not None and rule.kind == "exhaust":
            return ResponseAPDU(StatusWord.MEMORY_FAILURE)
        if rule is not None and rule.kind == "tamper":
            return ResponseAPDU(StatusWord.SECURITY_STATUS_NOT_SATISFIED)
        return self.inner.process(command)

    def __getattr__(self, name: str) -> object:
        return getattr(self.inner, name)
