"""The client-side seam of the DSP service.

The terminal proxy, the pull terminal and the dissemination layers all
talk to a :class:`DSPClient` -- the six request types of the DSP wire
protocol plus a clock to charge transport time to -- never to a
concrete server.  Two things satisfy it:

* :class:`~repro.dsp.server.DSPServer` itself (the zero-copy
  in-process deployment: no codec, no copy, metrics and SimClock
  totals bit-identical to the historical direct wiring);
* :class:`~repro.dsp.remote.RemoteDSP`, the socket client speaking
  :mod:`repro.dsp.wire` to a served DSP in another process.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.crypto.container import DocumentHeader
from repro.dsp.wire import DocMeta
from repro.smartcard.resources import SimClock

__all__ = ["DSPClient"]


@runtime_checkable
class DSPClient(Protocol):
    """What a terminal needs from a DSP, wherever the DSP runs.

    The six methods mirror the wire protocol's request types and the
    matching :class:`~repro.dsp.server.DSPServer` methods exactly --
    same signatures, same return values, same typed errors
    (:class:`~repro.errors.UnknownDocument`,
    :class:`~repro.errors.KeyNotGranted`, ``IndexError`` /
    ``ValueError`` on bad ranges) -- so callers cannot tell a remote
    service from the in-process one.  ``clock`` is where the terminal
    stack charges its simulated transport time.
    """

    clock: SimClock

    def get_header(self, doc_id: str) -> DocumentHeader:
        """The authenticated container header."""
        ...

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        """One encrypted chunk."""
        ...

    def get_chunk_range(
        self, doc_id: str, start: int, count: int
    ) -> list[bytes]:
        """``count`` consecutive chunks as one request (clipped)."""
        ...

    def get_rules(self, doc_id: str) -> tuple[int, list[bytes]]:
        """The sealed rule records and their version."""
        ...

    def get_wrapped_key(self, doc_id: str, recipient: str) -> bytes:
        """The document secret wrapped for one recipient."""
        ...

    def get_meta(self, doc_id: str, subject: str) -> DocMeta:
        """The cache-freshness probe (versions, generation, grant bit)."""
        ...

