"""The tier key chain: one PKI wrap per member, one wrap per document.

The flat ``Channel`` pays one PKI wrap per (document, member).  A feed
tier pays one PKI wrap per *member* -- once, at join -- and one
symmetric wrap per *document*; broadcast cycles, policy churn and
revocations pay zero.  The chain:

.. code-block:: text

    member --(one PKI wrap, at join)--> C_tier    tier content key
    C_tier --(one wrap per document)--> k_doc     document secret

Revoking a member deletes that member's blob at the DSP, so the
member's next key fetch fails with :class:`~repro.errors.KeyNotGranted`.

Revocation is *soft*, exactly like the flat model's documented
semantics: ``C_tier`` never rotates, so a revoked member whose
terminal kept a :class:`ResolvedTierKeys` (or whose DSP hands its old
blob back) still unwraps the secrets of documents published after the
revocation.  That is the paper's dissociation of rights from
encryption: the card enforces the policy whatever keys a terminal
holds, and durable exclusion pairs revocation with a policy update.
Forward secrecy against a key-retaining member would need a new
``C_tier`` wrapped to every remaining member and every document, a
cost this chain deliberately does not pay.

All feed-level blobs ride the existing ``wrapped_keys`` table, anchored
on a synthetic manifest document (:func:`feed_doc_id`), so no store
protocol or wire-codec change is needed and every topology (in-process,
durable, served) carries them for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.groupkey import unwrap_with_kek, wrap_with_kek
from repro.crypto.keys import random_key
from repro.crypto.pki import SimulatedPKI
from repro.dsp.client import DSPClient
from repro.errors import KeyNotGranted

#: Synthetic document ids anchoring feed-level state at the DSP.
FEED_DOC_PREFIX = "feed::"


def feed_doc_id(feed: str) -> str:
    """The manifest document id anchoring ``feed``'s key blobs."""
    return f"{FEED_DOC_PREFIX}{feed}"


def tier_prefix(feed: str, tier: str) -> str:
    """The recipient namespace of one tier (also its group subject)."""
    return f"feed:{feed}:{tier}"


def member_recipient(feed: str, tier: str, member: str) -> str:
    """Recipient row holding ``C_tier`` wrapped for one member."""
    return f"{tier_prefix(feed, tier)}:member:{member}"


def _member_context(feed: str, tier: str) -> str:
    return f"feed:{feed}:{tier}:content"


@dataclass(slots=True)
class TierKeyring:
    """Owner-side key state of one tier.

    Held only by the publishing process (like a document's secret);
    nothing here is ever persisted -- a reopened community restores
    feeds as *sealed* and readers resolve keys from the DSP blobs.
    """

    feed: str
    tier: str
    content: bytes

    @classmethod
    def create(cls, feed: str, tier: str) -> "TierKeyring":
        return cls(feed, tier, content=random_key())

    def wrap_member(
        self, pki: SimulatedPKI, owner: str, member: str
    ) -> bytes:
        """The one PKI wrap a join costs: ``C_tier`` for ``member``."""
        return pki.wrap_for(
            owner, member, _member_context(self.feed, self.tier), self.content
        )

    def wrap_doc_secret(self, doc_id: str, secret: bytes) -> bytes:
        """One symmetric wrap of a document secret for the whole tier."""
        context = f"feed:{self.feed}:{self.tier}:doc:{doc_id}"
        return wrap_with_kek(self.content, context, secret)


@dataclass(frozen=True, slots=True)
class ResolvedTierKeys:
    """What a reader derives from the DSP's tier blobs."""

    content: bytes


def resolve_tier_keys(
    dsp: DSPClient,
    pki: SimulatedPKI,
    feed: str,
    tier: str,
    owner: str,
    member: str,
) -> ResolvedTierKeys:
    """Reader-side step down the chain: the member's blob -> ``C_tier``.

    One fixed-size DSP read and one pairwise unwrap under the cached
    KEK -- the cost does not grow with membership, documents or cycles.
    Raises :class:`~repro.errors.KeyNotGranted` when the member's blob
    is absent (never joined, or revoked).
    """
    wrapped = dsp.get_wrapped_key(
        feed_doc_id(feed), member_recipient(feed, tier, member)
    )
    content = pki.unwrap_from(member, owner, _member_context(feed, tier), wrapped)
    return ResolvedTierKeys(content=content)


def resolve_doc_secret(
    dsp: DSPClient,
    keys: ResolvedTierKeys,
    feed: str,
    tier: str,
    doc_id: str,
) -> bytes:
    """Unwrap one feed document's secret with the tier content key."""
    try:
        wrapped = dsp.get_wrapped_key(doc_id, tier_prefix(feed, tier))
    except KeyNotGranted as exc:
        raise KeyNotGranted(
            f"document {doc_id!r} carries no grant for tier "
            f"{tier!r} of feed {feed!r}",
            doc_id=doc_id,
            subject=tier_prefix(feed, tier),
        ) from exc
    return unwrap_with_kek(
        keys.content, f"feed:{feed}:{tier}:doc:{doc_id}", wrapped
    )
