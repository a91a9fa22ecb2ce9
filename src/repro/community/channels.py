"""Push-mode dissemination under the facade's handle model.

``community.channel(document)`` returns the :class:`Channel` for one
published document: subscribe members, broadcast (optionally for
several carousel cycles), and read each subscriber's filtered view off
its :class:`~repro.dissemination.SubscriberHandle`.  The channel is a
thin adapter over the :mod:`repro.dissemination` core: its members
hold per-member wrapped keys and unlock their cards at subscribe time,
where a :class:`~repro.feeds.Feed` resolves tier keys per document.

Two sharing effects make wide audiences cheap here:

* every subscriber card uses the community's compiled-policy registry,
  so a tier of subscribers whose effective sub-policy is identical
  (same group, same rules) compiles its automata exactly once for the
  whole fleet -- a 10-subscriber broadcast adds zero
  ``compile_path`` calls over a 1-subscriber one;
* :meth:`Channel.preview` computes every subscriber's authorized view
  in ONE shared evaluation pass over the plaintext
  (:func:`~repro.core.multicast.multicast_view_texts`), the head-end
  amortization of the dissemination paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.delivery import ViewMode
from repro.core.multicast import multicast_view_texts
from repro.core.rules import Sign, Subject
from repro.dissemination.channel import BroadcastChannel, container_frames
from repro.dissemination.subscriber import SubscriberHandle
from repro.errors import PolicyError
from repro.terminal.transfer import TransferPolicy

if TYPE_CHECKING:
    from repro.community.facade import Community, Document, Member


class Channel:
    """The broadcast/carousel path for one document.

    Owned by the community (``community.channel(doc)`` always returns
    the same handle for the same document); the underlying unsecured
    :class:`BroadcastChannel` stays reachable as ``broadcast_channel``
    for tamper injection and bandwidth accounting.
    """

    def __init__(self, community: "Community", document: "Document") -> None:
        self.community = community
        self.document = document
        self.broadcast_channel = BroadcastChannel(clock=community.clock)
        self._handles: list[SubscriberHandle] = []
        self.cycles_sent = 0

    # -- audience ---------------------------------------------------------

    def subscribe(
        self,
        member: "Member | str",
        *,
        groups: frozenset[str] = frozenset(),
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
    ) -> SubscriberHandle:
        """Attach a member's card to the channel.

        The member's card is provisioned with the document secret
        through the normal unlock path (wrapped key at the DSP), then
        listens on the channel from the next cycle's header; ``groups``
        carries its subscription tiers.

        Revocation is *soft*, as on a feed: after
        ``document.revoke(member)`` a member subscribed before the
        revoke keeps receiving full views, because its card already
        holds the key; subscribing after the revoke raises
        :class:`~repro.errors.KeyNotGranted`.
        """
        if isinstance(member, str):
            member = self.community.member(member)
        if any(h.member is member for h in self._handles):
            # Two sessions on one card would interleave and silently
            # corrupt both views.
            raise PolicyError(
                f"{member.name!r} is already subscribed to "
                f"{self.document.doc_id!r}",
                doc_id=self.document.doc_id,
                subject=member.name,
            )
        doc = self.document
        member.unlock(doc.doc_id, doc.owner.name)
        handle = SubscriberHandle(
            member, groups=groups, view_mode=view_mode, transfer=transfer
        )
        self.broadcast_channel.subscribe(handle.on_frame)
        self._handles.append(handle)
        return handle

    @property
    def handles(self) -> "list[SubscriberHandle]":
        return list(self._handles)

    # -- head-end ---------------------------------------------------------

    def broadcast(self, cycles: int = 1) -> None:
        """Send ``cycles`` complete repetitions of the sealed document.

        Every byte is sent exactly once per cycle regardless of the
        audience size; each subscriber's card filters the stream
        against its own rights.
        """
        if cycles < 1:
            raise PolicyError("a broadcast needs at least one cycle")
        frames = container_frames(self.document.container)
        for __ in range(cycles):
            self.broadcast_channel.send(frames)
            self.cycles_sent += 1

    def preview(
        self, mode: ViewMode = ViewMode.SKELETON
    ) -> "dict[str, str]":
        """Every subscriber's view, computed in ONE evaluation pass.

        The head-end holds plaintext and policy before sealing, so it
        can preflight the whole audience with a single
        multi-subject pump over the document -- N views for the price
        of one parse, against the same compiled-policy registry the
        cards use.
        """
        events = self.document.events
        rules = self.document.rules
        if events is None or rules is None:
            raise PolicyError(
                f"document {self.document.doc_id!r} is a sealed handle; "
                "previews need the owner's plaintext, which only the "
                "publishing process holds",
                doc_id=self.document.doc_id,
            )
        subjects = [
            Subject(handle.member.name, handle.groups)
            for handle in self._handles
        ]
        return multicast_view_texts(
            events,
            rules,
            subjects,
            default=Sign.DENY,
            mode=mode,
            registry=self.community.registry,
        )

    def set_tamper(
        self, tamper: "Callable[[str, int, bytes], bytes] | None"
    ) -> None:
        """Install (or clear) an in-channel adversary."""
        self.broadcast_channel.set_tamper(tamper)
