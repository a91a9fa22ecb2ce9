"""Baselines the paper argues against or ablates.

* :mod:`repro.baselines.static_encryption` -- the client-based schemes
  of Bertino et al. [1] and Hacigumus et al. [6]: the dataset is
  partitioned into authorization-equivalence classes, one key per
  class.  Sharing is static: every policy change re-encrypts data and
  redistributes keys (experiment E8).
* the engine without its skip index (the E1/E2 ablation) is no module
  of its own: a pull session with ``PullSetup(index_mode=IndexMode.NONE)``
  makes the card receive, decrypt and parse every chunk.
* :mod:`repro.baselines.server_filter` -- a *trusted* server computing
  views in plaintext: the architecture the paper's threat model rules
  out, kept as a latency reference point (E6).
"""

from repro.baselines.static_encryption import (
    ChurnCost,
    StaticEncryptionScheme,
)
from repro.baselines.server_filter import trusted_server_query

__all__ = [
    "ChurnCost",
    "StaticEncryptionScheme",
    "trusted_server_query",
]
