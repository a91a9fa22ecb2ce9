"""The :class:`Feed`: tiered dissemination of one publisher's corpus.

A feed owns a set of documents, a set of named tiers
(:class:`~repro.feeds.tiers.TierSpec`) and one broadcast lane per
tier.  The publisher's per-cycle work is O(tiers):

* every document carries ONE composed policy (all tiers' templates),
  compiled once per distinct sub-policy and shared by every card in a
  tier;
* every document carries ONE wrapped secret per tier
  (:mod:`repro.feeds.keys`), written at publish time -- carousel
  cycles, joins and policy churn never touch it;
* members cost one PKI wrap at join, and nothing per cycle;
* revoking a member is one blob deletion, one epoch bump and exactly
  one re-wrap, regardless of member and document count.

Late joiners call :meth:`Feed.catch_up`: one cycle is rebuilt from
the containers the DSP stores and replayed through the member's card.
The store holds only ciphertext and the card enforces the policy, so
the stored corpus is the whole catch-up state -- a republish or a
revocation is served by construction, never a stale cycle.

A feed restored by ``Community.open`` is **sealed** (the owner's tier
keyrings and plaintext live only in the publishing process): catch-up
and epoch inspection work, publishing/subscribing/revoking need the
owner process -- the same split as sealed :class:`Document` handles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.delivery import ViewMode
from repro.core.multicast import multicast_view_texts
from repro.core.rules import Sign, Subject
from repro.crypto.container import seal_document
from repro.crypto.keys import DocumentKeys, random_key
from repro.dissemination.channel import BroadcastChannel, Frame, container_frames
from repro.dissemination.subscriber import SubscriberHandle
from repro.dsp.store import DSPStore
from repro.errors import KeyNotGranted, PolicyError
from repro.feeds.keys import (
    ResolvedTierKeys,
    TierKeyring,
    decode_epoch,
    epoch_recipient,
    feed_doc_id,
    grant_recipient,
    member_recipient,
    resolve_doc_secret,
    resolve_tier_keys,
    tier_prefix,
)
from repro.feeds.tiers import TierSpec, compose_rules
from repro.skipindex.encoder import IndexMode
from repro.terminal.transfer import TransferPolicy

if TYPE_CHECKING:
    from repro.community.facade import Community, Document, DocumentSource, Member


class _TierState:
    """One tier's runtime wiring inside a feed."""

    __slots__ = ("spec", "keyring", "channel", "handles")

    def __init__(
        self,
        spec: TierSpec,
        keyring: TierKeyring | None,
        channel: BroadcastChannel,
    ) -> None:
        self.spec = spec
        self.keyring = keyring
        self.channel = channel
        self.handles: list[SubscriberHandle] = []


class Feed:
    """Tiered, group-keyed dissemination of one owner's documents.

    Build through ``community.feed(name, owner=..., tiers=[...])``;
    the constructor is wired by the facade.
    """

    def __init__(
        self,
        community: "Community",
        name: str,
        owner: "Member",
        tiers: Sequence[TierSpec],
        *,
        sealed: bool = False,
        doc_ids: Sequence[str] = (),
    ) -> None:
        if not name or ":" in name:
            raise PolicyError(
                f"feed name {name!r} must be non-empty and contain no ':' "
                "(it becomes part of every tier's group subject)"
            )
        if not tiers:
            raise PolicyError(f"feed {name!r} needs at least one tier")
        compose_rules(name, tiers)  # validates tier names up front
        self.community = community
        self.name = name
        self.owner = owner
        self.sealed = sealed
        self._tiers: dict[str, _TierState] = {}
        for spec in tiers:
            self._tiers[spec.name] = _TierState(
                spec,
                None if sealed else TierKeyring.create(name, spec.name),
                BroadcastChannel(clock=community.clock),
            )
        self._members: dict[str, str] = {}
        self._docs: list[Document] = [
            community.document(doc_id) for doc_id in doc_ids
        ]
        if not sealed:
            self._create_anchor()

    def __repr__(self) -> str:
        state = "sealed" if self.sealed else "live"
        return (
            f"Feed({self.name!r}, owner={self.owner.name!r}, "
            f"tiers={list(self._tiers)}, {state})"
        )

    # -- wiring -----------------------------------------------------------

    def _store(self) -> DSPStore:
        return self.community._require_store()

    def _require_live(self, operation: str) -> None:
        if self.sealed:
            raise PolicyError(
                f"feed {self.name!r} is a sealed handle; {operation} needs "
                "the owner's tier keyrings, which only the publishing "
                "process holds (catch_up and epoch inspection still work)",
                subject=self.owner.name,
            )

    def _keyring(self, tier: str) -> TierKeyring:
        keyring = self._tiers[tier].keyring
        assert keyring is not None  # _require_live ran first
        return keyring

    def _tier(self, name: str) -> _TierState:
        state = self._tiers.get(name)
        if state is None:
            raise PolicyError(
                f"feed {self.name!r} has no tier {name!r} "
                f"(tiers: {list(self._tiers)})"
            )
        return state

    def _create_anchor(self) -> None:
        """Upload the manifest document anchoring this feed's key blobs.

        The container is a minimal sealed blob under a throwaway key --
        nobody ever reads it; it exists so the feed's tier blobs can
        ride the ordinary ``wrapped_keys`` table under a document id
        every backend and topology already persists and serves.
        """
        store = self._store()
        anchor = feed_doc_id(self.name)
        if anchor in store:
            raise PolicyError(
                f"a feed named {self.name!r} already exists at this store "
                "(Community.open restores it as a sealed handle)"
            )
        container = seal_document(
            f"feed-anchor:{self.name}".encode("utf-8"),
            anchor,
            1,
            DocumentKeys(random_key()),
            chunk_size=64,
        )
        store.put_document(container)
        for tier, state in self._tiers.items():
            keyring = state.keyring
            assert keyring is not None
            store.put_wrapped_key(
                anchor, epoch_recipient(self.name, tier), keyring.epoch_record()
            )
            store.put_wrapped_key(
                anchor, grant_recipient(self.name, tier), keyring.wrap_grant()
            )

    # -- introspection ----------------------------------------------------

    @property
    def tiers(self) -> list[TierSpec]:
        return [state.spec for state in self._tiers.values()]

    @property
    def documents(self) -> "list[Document]":
        return list(self._docs)

    @property
    def members(self) -> dict[str, str]:
        """Member name -> tier name, in join order (live feeds only)."""
        return dict(self._members)

    def handles(self, tier: str | None = None) -> list[SubscriberHandle]:
        if tier is not None:
            return list(self._tier(tier).handles)
        return [h for state in self._tiers.values() for h in state.handles]

    def epoch(self, tier: str) -> int:
        """The tier's current epoch, as recorded at the DSP.

        Works on sealed feeds: the epoch record is a public blob.
        """
        self._tier(tier)
        record = self.community.dsp.get_wrapped_key(
            feed_doc_id(self.name), epoch_recipient(self.name, tier)
        )
        return decode_epoch(record)

    def broadcast_list(self, tier: str) -> "list[Document]":
        """The documents one cycle carries to ``tier`` (quota applied)."""
        quota = self._tier(tier).spec.quota
        return self._docs[: quota] if quota is not None else list(self._docs)

    # -- owner side -------------------------------------------------------

    def publish(
        self,
        source: "DocumentSource",
        *,
        doc_id: str | None = None,
        index_mode: IndexMode = IndexMode.RECURSIVE,
        chunk_size: int = 96,
    ) -> "Document":
        """Publish (or republish) a document into every tier.

        The document is sealed once, under the feed's composed policy
        (every tier's template); each tier then costs exactly one
        symmetric wrap of the document secret under its content key.
        No member-count-dependent work happens here.
        """
        self._require_live("publishing")
        rules = compose_rules(self.name, self.tiers)
        document = self.owner.publish(
            source,
            rules,
            doc_id=doc_id,
            index_mode=index_mode,
            chunk_size=chunk_size,
        )
        store = self._store()
        secret = document._owner_secret()
        for tier in self._tiers:
            store.put_wrapped_key(
                document.doc_id,
                tier_prefix(self.name, tier),
                self._keyring(tier).wrap_doc_secret(document.doc_id, secret),
            )
        if all(existing.doc_id != document.doc_id for existing in self._docs):
            self._docs.append(document)
            self.community._save_manifest()
        return document

    def broadcast(self, cycles: int = 1) -> None:
        """Send ``cycles`` carousel cycles on every tier's lane.

        Per cycle each tier broadcasts its quota-capped document list;
        the byte cost is O(tiers x documents) regardless of audience
        size, and zero key wraps or policy compiles happen (asserted
        by tests through the process-wide counters).  Each cycle is
        read from the stored containers, the same frames
        :meth:`catch_up` replays.
        """
        self._require_live("broadcasting")
        if cycles < 1:
            raise PolicyError("a broadcast needs at least one cycle")
        for tier, state in self._tiers.items():
            frames = self._cycle_frames(tier)
            for _ in range(cycles):
                state.channel.send(frames)

    def preview(
        self, mode: ViewMode = ViewMode.SKELETON
    ) -> dict[str, str]:
        """Every tier's per-cycle view, in ONE evaluation pass per doc.

        One multicast lane per *tier* -- not per member -- because a
        tier's members share the tier group subject.  The result is
        each tier's concatenated view of its broadcast list, exactly
        what a subscribed member's :attr:`SubscriberHandle.view`
        accumulates after one complete cycle.
        """
        self._require_live("previews")
        views: dict[str, list[str]] = {tier: [] for tier in self._tiers}
        carried: dict[str, set[str]] = {
            tier: {doc.doc_id for doc in self.broadcast_list(tier)}
            for tier in self._tiers
        }
        for document in self._docs:
            lanes = [
                tier
                for tier in self._tiers
                if document.doc_id in carried[tier]
            ]
            if not lanes:
                continue  # quota-excluded everywhere: no lane to fill
            events = document.events
            rules = document.rules
            if events is None or rules is None:
                raise PolicyError(
                    f"document {document.doc_id!r} is a sealed handle; "
                    "feed previews need the owner's plaintext",
                    doc_id=document.doc_id,
                )
            passes = multicast_view_texts(
                events,
                rules,
                [Subject(tier_prefix(self.name, tier)) for tier in lanes],
                default=Sign.DENY,
                mode=mode,
                registry=self.community.registry,
            )
            for tier in lanes:
                views[tier].append(passes[tier_prefix(self.name, tier)])
        return {tier: "".join(parts) for tier, parts in views.items()}

    # -- membership -------------------------------------------------------

    def subscribe(
        self,
        member: "Member | str",
        tier: str,
        *,
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
        attach: bool = True,
    ) -> SubscriberHandle:
        """Join a member to a tier: ONE PKI wrap, ever.

        The member's wrapped ``S_tier`` blob is written at the DSP, the
        tier keys are resolved back through the reader path (proving
        the blob works), and the returned handle starts listening on
        the tier's lane from the next cycle.

        ``attach=False`` records the membership (and still proves the
        key path) without wiring a live listener -- for members that
        will only ever :meth:`catch_up`, and for benchmarks that grow
        membership without simulating every receiver.
        """
        self._require_live("subscribing")
        if isinstance(member, str):
            member = self.community.member(member)
        if member.name in self._members:
            raise PolicyError(
                f"{member.name!r} is already subscribed to tier "
                f"{self._members[member.name]!r} of feed {self.name!r} "
                "(one card runs one session per document; revoke first "
                "to move tiers)",
                subject=member.name,
            )
        state = self._tier(tier)
        keyring = self._keyring(tier)
        self._store().put_wrapped_key(
            feed_doc_id(self.name),
            member_recipient(self.name, tier, member.name),
            keyring.wrap_member(self.community.pki, self.owner.name, member.name),
        )
        keys = resolve_tier_keys(
            self.community.dsp,
            self.community.pki,
            self.name,
            tier,
            self.owner.name,
            member.name,
        )
        handle = self._handle(member, tier, keys, view_mode, transfer)
        if attach:
            state.channel.subscribe(handle.on_frame)
            state.handles.append(handle)
        self._members[member.name] = tier
        return handle

    def revoke(self, member: "Member | str") -> None:
        """Remove a member from its tier: one re-wrap, one epoch bump.

        Deletes the member's ``S_tier`` blob, bumps the tier epoch and
        re-wraps the tier content key under the new epoch key -- the
        only wrap performed, however many members and documents exist.
        Attached handles are detached immediately (no further frames),
        and the member's next catch-up fails with
        :class:`~repro.errors.KeyNotGranted`.

        Like flat-channel revocation this is *soft* against a member
        whose terminal already resolved the tier keys (the paper's
        model) -- and note the epoch bump rotates only the *wrapping*
        of ``C_tier``, never ``C_tier`` itself: a revoked member who
        retained a :class:`~repro.feeds.keys.ResolvedTierKeys` handle
        can keep unwrapping document secrets, **including documents
        published after the revocation**, until the tier is re-keyed.
        The epoch machinery cuts off the DSP *fetch* path, not
        already-resolved keys; durable exclusion pairs this with a
        policy update (the cards enforce rules regardless of keys) or
        a tier re-key.
        """
        self._require_live("revocation")
        name = member if isinstance(member, str) else member.name
        tier = self._members.pop(name, None)
        if tier is None:
            raise PolicyError(
                f"{name!r} is not subscribed to feed {self.name!r}",
                subject=name,
            )
        store = self._store()
        anchor = feed_doc_id(self.name)
        store.remove_wrapped_key(anchor, member_recipient(self.name, tier, name))
        keyring = self._keyring(tier)
        keyring.bump_epoch()
        store.put_wrapped_key(
            anchor, epoch_recipient(self.name, tier), keyring.epoch_record()
        )
        store.put_wrapped_key(
            anchor, grant_recipient(self.name, tier), keyring.wrap_grant()
        )
        state = self._tier(tier)
        for handle in state.handles:
            if handle.member.name == name:
                handle.revoked = True
        state.handles = [h for h in state.handles if h.member.name != name]

    # -- late-joiner catch-up ---------------------------------------------

    def catch_up(
        self,
        member: "Member | str",
        *,
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
    ) -> SubscriberHandle:
        """Replay one cycle of the member's tier through its card.

        Resolves the member's tier keys from the DSP blobs (works in a
        reopened process: the simulated PKI re-derives key pairs
        deterministically) and replays the stored containers of the
        tier's broadcast list through a fresh handle -- the resulting
        view is byte-identical to having listened to a full live cycle
        of the current versions.  Sealed feeds catch up the same way;
        a revoked member fails with
        :class:`~repro.errors.KeyNotGranted` before any frame flows.
        """
        if isinstance(member, str):
            member = self.community.member(member)
        tier, keys = self._resolve_membership(member.name)
        handle = self._handle(member, tier, keys, view_mode, transfer)
        # The handle is one-shot: it replays the cycle NOW and never
        # attaches to the live lane -- a member who also subscribed
        # would otherwise run two interleaved sessions on one card
        # during the next cycle (the hazard double-subscribe refuses).
        for kind, index, payload in self._cycle_frames(tier):
            handle.on_frame(kind, index, payload)
        return handle

    def _cycle_frames(self, tier: str) -> list[Frame]:
        """One carousel cycle of ``tier``: the frames of each stored
        container on its broadcast list, in order."""
        store = self._store()
        frames: list[Frame] = []
        for document in self.broadcast_list(tier):
            frames.extend(container_frames(store.get(document.doc_id).container))
        return frames

    def _handle(
        self,
        member: "Member",
        tier: str,
        keys: ResolvedTierKeys,
        view_mode: ViewMode,
        transfer: TransferPolicy | None,
    ) -> SubscriberHandle:
        """A tier-lane handle resolving each document's secret on first
        sight -- so a member joining mid-cycle, or before a document
        even existed, needs no re-grant."""

        def provision(doc_id: str) -> None:
            secret = resolve_doc_secret(
                self.community.dsp, keys, self.name, tier, doc_id
            )
            member.proxy.provision_key(doc_id, secret)

        handle = SubscriberHandle(
            member,
            provision,
            groups=frozenset({tier_prefix(self.name, tier)}),
            view_mode=view_mode,
            transfer=transfer,
        )
        handle.tier = tier
        return handle

    def _resolve_membership(self, name: str) -> tuple[str, ResolvedTierKeys]:
        tier = self._members.get(name)
        candidates = [tier] if tier is not None else list(self._tiers)
        failure: KeyNotGranted | None = None
        for candidate in candidates:
            try:
                keys = resolve_tier_keys(
                    self.community.dsp,
                    self.community.pki,
                    self.name,
                    candidate,
                    self.owner.name,
                    name,
                )
                return candidate, keys
            except KeyNotGranted as exc:
                failure = exc
        raise KeyNotGranted(
            f"{name!r} holds no tier key blob on feed {self.name!r} "
            "(never subscribed, or revoked)",
            subject=name,
        ) from failure
