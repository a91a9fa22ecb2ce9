"""The ONE symmetric key-wrap implementation behind every grant path.

Historically each layer that needed to hand a secret to someone open-
coded the same CBC-under-a-KEK construction (the PKI's pairwise wraps,
and now the feeds' tier keys).  This module is the single
shared implementation: a wrap is ``CBC_KEK(secret)`` with a
deterministic IV bound to a *context* string, so the same (KEK,
context) pair always produces the same blob -- deterministic tests,
idempotent re-grants -- while distinct contexts (different principal
pairs, different tiers, different documents) never share an IV.

:func:`wrap_call_count` is a process-wide counter in the style of
:func:`repro.core.nfa.compile_call_count`: tests and benchmarks read it
to assert key-wrap economics exactly -- e.g. that publishing to a
feed performs one wrap per tier, not one per member, and that revoking
a member performs none.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.xtea import BLOCK_SIZE, XTEACipher

_wrap_calls = 0


def wrap_call_count() -> int:
    """Process-wide number of key wraps performed so far.

    Read it before and after an operation to count the wraps it cost;
    unwraps are not counted (they are the receiver's business).
    """
    return _wrap_calls


def _context_iv(kek: bytes, context: str) -> bytes:
    return hmac.new(
        kek, f"wrap:{context}".encode("utf-8"), hashlib.sha256
    ).digest()[:BLOCK_SIZE]


def wrap_with_kek(kek: bytes, context: str, secret: bytes) -> bytes:
    """Wrap ``secret`` under ``kek``, IV-bound to ``context``."""
    global _wrap_calls
    _wrap_calls += 1
    return XTEACipher.for_key(kek).cbc_encrypt(secret, _context_iv(kek, context))


def unwrap_with_kek(kek: bytes, context: str, wrapped: bytes) -> bytes:
    """Invert :func:`wrap_with_kek` for the same ``(kek, context)``."""
    return XTEACipher.for_key(kek).cbc_decrypt(wrapped, _context_iv(kek, context))
