"""Tiered feeds: group-keyed dissemination that stays flat at scale.

A :class:`Feed` is an adapter over the :mod:`repro.dissemination`
push core, beside the per-document ``community.Channel``: the
publisher declares named **tiers** (public / partner / internal) as
frozen rule templates (:class:`TierSpec`), members subscribe to a tier
(one :class:`~repro.dissemination.SubscriberHandle` per member, on the
tier's lane), and each tier is backed by a group-key hierarchy
(:mod:`repro.feeds.keys`) so a tier costs ONE wrapped key -- a
per-member wrap happens only at join, and revoking a member from a
tier is one re-wrap plus an epoch bump, never N re-grants.

Broadcast cost per carousel cycle is therefore O(tiers), not
O(members), and the head-end previews the whole audience in one
multi-subject pass (one evaluation lane per tier, since every member
of a tier shares the tier's group subject).

Late joiners catch up from a persisted carousel snapshot
(:mod:`repro.feeds.snapshot`, stored by ``SQLiteBackend``), validated
against the store's generation counter and the tier epoch so a
republish or a tier revocation can never serve a stale cycle.
"""

from __future__ import annotations

from repro.feeds.feed import Feed
from repro.feeds.keys import TierKeyring, feed_doc_id
from repro.feeds.snapshot import CycleSnapshot, decode_snapshot, encode_snapshot
from repro.feeds.tiers import TierSpec, compose_rules

__all__ = [
    "CycleSnapshot",
    "Feed",
    "TierKeyring",
    "TierSpec",
    "compose_rules",
    "decode_snapshot",
    "encode_snapshot",
    "feed_doc_id",
]
