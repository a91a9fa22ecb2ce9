"""The tier group-key hierarchy: a tier is ONE wrapped key.

The flat ``Channel`` pays one PKI wrap per (document, member).  A feed
tier pays one PKI wrap per *member* -- once, at join -- and one
symmetric wrap per *document*; broadcast cycles and policy churn pay
zero.  The chain:

.. code-block:: text

    member --(one PKI wrap, at join)--> S_tier    tier master secret
    S_tier --derive("epoch:e")-------> K_e        epoch key
    K_e    --(THE one re-wrapped blob)-> C_tier   tier content key
    C_tier --(one wrap per document)--> k_doc     document secret

Revoking a member deletes that member's ``S_tier`` blob at the DSP,
bumps the epoch ``e -> e+1`` and re-wraps ``C_tier`` under ``K_{e+1}``
-- exactly one wrap regardless of member count and document count
(tests assert this through :func:`repro.crypto.groupkey.wrap_call_count`).
Remaining members derive ``K_{e+1}`` from their ``S_tier`` and keep
reading; the revoked member's next key fetch fails with
:class:`~repro.errors.KeyNotGranted`.

Revocation is *soft*, exactly like the flat model's documented
semantics: a member whose terminal already resolved the tier keys
retains them (the paper's dissociation of rights from encryption --
durable exclusion pairs revocation with a policy update or a tier
re-key).  Be explicit about what the epoch bump does **not** buy:
``C_tier`` itself never rotates, so a revoked member holding a
:class:`ResolvedTierKeys` can unwrap the secrets of documents
published *after* the revocation too -- the bump only closes the DSP
fetch path (``resolve_tier_keys`` fails) for members without cached
keys.  Forward secrecy against a key-retaining member requires
rotating ``C_tier`` (a re-wrap per existing document), which this
hierarchy deliberately trades away to keep revocation at exactly one
wrap.

All feed-level blobs ride the existing ``wrapped_keys`` table, anchored
on a synthetic manifest document (:func:`feed_doc_id`), so no store
protocol or wire-codec change is needed and every topology (in-process,
durable, served) carries them for free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto.groupkey import unwrap_with_kek, wrap_with_kek
from repro.crypto.keys import derive_key, random_key
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
    """Recipient row holding one member's wrapped ``S_tier``."""
    return f"{tier_prefix(feed, tier)}:member:{member}"


def epoch_recipient(feed: str, tier: str) -> str:
    """Recipient row holding the tier's current epoch number."""
    return f"{tier_prefix(feed, tier)}:epoch"


def grant_recipient(feed: str, tier: str) -> str:
    """Recipient row holding ``C_tier`` wrapped under the epoch key."""
    return f"{tier_prefix(feed, tier)}:grant"


def _epoch_key(master: bytes, feed: str, tier: str, epoch: int) -> bytes:
    return derive_key(master, f"feed:{feed}:{tier}:epoch:{epoch}")


def _member_context(feed: str, tier: str) -> str:
    return f"feed:{feed}:{tier}:member"


@dataclass(slots=True)
class TierKeyring:
    """Owner-side key state of one tier.

    Held only by the publishing process (like a document's secret);
    nothing here is ever persisted -- a reopened community restores
    feeds as *sealed* and readers resolve keys from the DSP blobs.
    """

    feed: str
    tier: str
    master: bytes
    content: bytes
    epoch: int = 1

    @classmethod
    def create(cls, feed: str, tier: str) -> "TierKeyring":
        return cls(feed, tier, master=random_key(), content=random_key())

    def wrap_member(
        self, pki: SimulatedPKI, owner: str, member: str
    ) -> bytes:
        """The one PKI wrap a join costs: ``S_tier`` for ``member``."""
        return pki.wrap_for(
            owner, member, _member_context(self.feed, self.tier), self.master
        )

    def wrap_grant(self) -> bytes:
        """``C_tier`` under the *current* epoch key.

        This is the single blob a revocation re-wraps.
        """
        key = _epoch_key(self.master, self.feed, self.tier, self.epoch)
        context = f"feed:{self.feed}:{self.tier}:grant:{self.epoch}"
        return wrap_with_kek(key, context, self.content)

    def wrap_doc_secret(self, doc_id: str, secret: bytes) -> bytes:
        """One symmetric wrap of a document secret for the whole tier."""
        context = f"feed:{self.feed}:{self.tier}:doc:{doc_id}"
        return wrap_with_kek(self.content, context, secret)

    def bump_epoch(self) -> int:
        """Advance to the next epoch; returns the new epoch number."""
        self.epoch += 1
        return self.epoch

    def epoch_record(self) -> bytes:
        """The (plaintext) epoch number as stored at the DSP.

        The DSP already learns tier membership from recipient names;
        the epoch ordinal reveals nothing beyond 'a revocation
        happened', which key-row deletion reveals anyway.
        """
        return struct.pack(">Q", self.epoch)


def decode_epoch(record: bytes) -> int:
    """Invert :meth:`TierKeyring.epoch_record`."""
    (epoch,) = struct.unpack(">Q", record)
    return int(epoch)


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
    """Reader-side walk down the hierarchy: blobs -> ``C_tier``.

    Three fixed-size DSP reads (member blob, epoch record, grant blob)
    and zero asymmetric operations beyond the one cached pairwise KEK
    -- the cost does not grow with membership, documents or cycles.
    Raises :class:`~repro.errors.KeyNotGranted` when the member's blob
    is absent (never joined, or revoked).
    """
    anchor = feed_doc_id(feed)
    wrapped_master = dsp.get_wrapped_key(
        anchor, member_recipient(feed, tier, member)
    )
    master = pki.unwrap_from(
        member, owner, _member_context(feed, tier), wrapped_master
    )
    epoch = decode_epoch(dsp.get_wrapped_key(anchor, epoch_recipient(feed, tier)))
    grant = dsp.get_wrapped_key(anchor, grant_recipient(feed, tier))
    key = _epoch_key(master, feed, tier, epoch)
    content = unwrap_with_kek(
        key, f"feed:{feed}:{tier}:grant:{epoch}", grant
    )
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
