"""Tiered feeds: group-keyed dissemination that stays flat at scale.

A :class:`Feed` is an adapter over the :mod:`repro.dissemination`
push core, beside the per-document ``community.Channel``: the
publisher declares named **tiers** (public / partner / internal) as
frozen rule templates (:class:`TierSpec`), members subscribe to a tier
(one :class:`~repro.dissemination.SubscriberHandle` per member, on the
tier's lane), and each tier is backed by one content key
(:mod:`repro.feeds.keys`) wrapped once per member at join and once per
document at publish -- revoking a member deletes its blob and wraps
nothing, never N re-grants.

Broadcast cost per carousel cycle is therefore O(tiers), not
O(members), and the head-end previews the whole audience in one
multi-subject pass (one evaluation lane per tier, since every member
of a tier shares the tier's group subject).

Late joiners catch up by replaying one cycle rebuilt from the
containers the DSP stores, so a republish or a tier revocation is
served as it stands, never a stale cycle.
"""

from __future__ import annotations

from repro.feeds.feed import Feed
from repro.feeds.keys import TierKeyring, feed_doc_id
from repro.feeds.tiers import TierSpec, compose_rules

__all__ = [
    "Feed",
    "TierKeyring",
    "TierSpec",
    "compose_rules",
    "feed_doc_id",
]
