"""Transfer planning for the chunk path: DSP batching and APDU windows.

The paper's bandwidth win comes from the skip index, but the *transport*
around it decides how many round trips a session costs: one DSP request
per chunk plus one blocking APDU per chunk makes session latency
round-trip bound rather than byte bound.  :class:`TransferPolicy`
describes how aggressively the proxy may batch:

* ``window`` -- how many chunks ahead of the card's cursor the proxy
  fetches from the DSP in one ranged request
  (:meth:`repro.dsp.server.DSPServer.get_chunk_range`), charging the
  per-request overhead once per window instead of once per chunk;
* ``apdu_batch`` -- how many chunks the proxy packs into one
  ``PUT_CHUNK_BATCH`` instruction, so the card answers with one resume
  offset (and one output drain) per batch instead of per chunk.

Speculation has a price: a skip directive that lands mid-window makes
the already-fetched chunks past the resume offset useless.  The proxy
discards them (never sending them over the 2 KB/s card link) and counts
their ciphertext in ``SessionMetrics.bytes_wasted``; chunks that were
already inside an in-flight batch are dropped *on the card* without
being decrypted and counted the same way.  ``window=1, apdu_batch=1``
is the degenerate case and reproduces the sequential path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TransferPolicy:
    """How the proxy plans chunk movement DSP -> terminal -> card."""

    #: Chunks fetched ahead from the DSP per ranged request.
    window: int = 1
    #: Chunks packed into one PUT_CHUNK_BATCH APDU exchange.
    apdu_batch: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.apdu_batch < 1:
            raise ValueError("apdu_batch must be >= 1")
        if self.apdu_batch > self.window:
            raise ValueError("apdu_batch cannot exceed the prefetch window")

    @classmethod
    def windowed(cls, size: int) -> "TransferPolicy":
        """A symmetric policy: prefetch ``size``, batch ``size``."""
        return cls(window=size, apdu_batch=size)


#: The paper's original transport: one chunk per request, per APDU.
SEQUENTIAL = TransferPolicy()
