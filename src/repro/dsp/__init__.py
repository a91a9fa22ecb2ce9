"""The untrusted Database Service Provider (DSP).

"a DSP which hosts encrypted XML documents shared by users as well as
encrypted access rules.  Both are encrypted using secret keys exchanged
between users thanks to a public key infrastructure" (Section 3).

The DSP sees only ciphertext; it can serve chunks by index (pull) or
push them (dissemination).  The layer is organized around three seams:

* **storage** -- :class:`DSPStore` fronts a pluggable
  :class:`~repro.dsp.backends.StoreBackend`
  (:class:`~repro.dsp.backends.MemoryBackend` in-process,
  :class:`~repro.dsp.backends.SQLiteBackend` durable);
* **service** -- :class:`DSPServer` answers the six request types
  (header, chunk, chunk range, rules, wrapped key, freshness probe)
  with network-cost accounting;
* **wire** -- :mod:`repro.dsp.wire` serializes those requests and
  responses (typed errors included), :class:`ReactorDSPServer` (the
  event-loop server with admission control) serves them over TCP and
  :class:`RemoteDSP` consumes them; terminals only ever see the
  :class:`~repro.dsp.client.DSPClient` protocol.

Everything that keeps a copy of store data -- the terminal view cache
and the reactor's response cache -- decides whether the copy is
current with one rule, :class:`Freshness` in
:mod:`repro.dsp.freshness`: the store stamp ``(generation, boot)``
plus per-document ``(doc_version, rules_version)``.

:mod:`repro.dsp.tamper` implements the adversarial behaviours --
substitution, modification, reordering, truncation, version replay --
used by the security tests and E9.
"""

from repro.dsp.backends import (
    MemoryBackend,
    SQLiteBackend,
    StoreBackend,
    StoredDocument,
)
from repro.dsp.client import DSPClient
from repro.dsp.freshness import Freshness
from repro.dsp.reactor import AdmissionPolicy, ReactorDSPServer
from repro.dsp.remote import (
    ConnectionStats,
    GenerationChanged,
    RemoteDSP,
    RetryPolicy,
)
from repro.dsp.server import DSPServer
from repro.dsp.store import DSPStore

__all__ = [
    "AdmissionPolicy",
    "ConnectionStats",
    "DSPClient",
    "DSPServer",
    "DSPStore",
    "Freshness",
    "GenerationChanged",
    "MemoryBackend",
    "ReactorDSPServer",
    "RemoteDSP",
    "RetryPolicy",
    "SQLiteBackend",
    "StoreBackend",
    "StoredDocument",
]
