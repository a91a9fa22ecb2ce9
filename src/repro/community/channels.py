"""Push-mode dissemination under the facade's handle model.

``community.channel(document)`` returns the :class:`Channel` for one
published document: subscribe members, broadcast (optionally for
several carousel cycles), and read each subscriber's filtered view off
its :class:`SubscriberHandle`.

Two sharing effects make wide audiences cheap here:

* every subscriber card uses the community's compiled-policy registry,
  so a tier of subscribers whose effective sub-policy is identical
  (same group, same rules) compiles its automata exactly once for the
  whole fleet -- a 10-subscriber broadcast adds zero
  ``compile_path`` calls over a 1-subscriber one;
* :meth:`Channel.preview` computes every subscriber's authorized view
  in ONE shared evaluation pass over the plaintext
  (:func:`~repro.core.multicast.multicast_view_texts` via the stream
  publisher), the head-end amortization of the dissemination paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.delivery import ViewMode
from repro.core.rules import Sign, Subject
from repro.dissemination.carousel import LateJoiningSubscriber
from repro.dissemination.channel import BroadcastChannel
from repro.dissemination.publisher import StreamPublisher
from repro.dissemination.subscriber import Subscriber
from repro.errors import PolicyError
from repro.smartcard.resources import SessionMetrics
from repro.terminal.transfer import TransferPolicy

if TYPE_CHECKING:
    from repro.community.facade import Community, Document, Member


class SubscriberHandle:
    """One member's receiving end of a broadcast channel."""

    def __init__(
        self,
        member: "Member",
        subscriber: Subscriber,
        late: "LateJoiningSubscriber | None" = None,
    ) -> None:
        self.member = member
        self.subscriber = subscriber
        self._late = late

    def __repr__(self) -> str:
        return f"SubscriberHandle({self.member.name!r})"

    @property
    def view(self) -> str:
        """The authorized view received so far."""
        return self.subscriber.view

    @property
    def ok(self) -> bool:
        return self.subscriber.ok

    @property
    def metrics(self) -> SessionMetrics:
        return self.subscriber.metrics

    @property
    def frames_missed(self) -> int:
        """Frames of the partial first cycle a late joiner discarded."""
        return self._late.frames_missed if self._late is not None else 0

    def require_ok(self) -> None:
        """Raise the typed error behind a failed session, if any."""
        self.subscriber.require_ok()


class Channel:
    """The broadcast/carousel path for one document.

    Owned by the community (``community.channel(doc)`` always returns
    the same handle for the same document); the underlying unsecured
    :class:`BroadcastChannel` and head-end
    :class:`StreamPublisher` stay reachable as ``broadcast_channel``
    and ``publisher`` for tamper injection and bandwidth accounting.
    """

    def __init__(self, community: "Community", document: "Document") -> None:
        self.community = community
        self.document = document
        self.broadcast_channel = BroadcastChannel(clock=community.clock)
        self.publisher = StreamPublisher(
            self.broadcast_channel, registry=community.registry
        )
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
        late: bool = False,
    ) -> SubscriberHandle:
        """Attach a member's card to the channel.

        The member's card is provisioned with the document secret
        through the normal unlock path (wrapped key at the DSP), then
        listens on the channel; ``groups`` carries its subscription
        tiers, ``late`` wraps it as a late joiner that only engages
        from the next carousel cycle's header.
        """
        if isinstance(member, str):
            member = self.community.member(member)
        if any(h.member is member for h in self._handles):
            # Two Subscribers on one card would interleave their
            # sessions and silently corrupt both views.
            raise PolicyError(
                f"{member.name!r} is already subscribed to "
                f"{self.document.doc_id!r}",
                doc_id=self.document.doc_id,
                subject=member.name,
            )
        doc = self.document
        member.unlock(doc.doc_id, doc.owner.name)
        stored = self.community._require_store().get(doc.doc_id)
        subscriber = Subscriber(
            member.name,
            member.card,
            stored.rules_version,
            list(stored.rule_records),
            clock=self.broadcast_channel.clock,
            view_mode=view_mode,
            registry=self.community.registry,
            transfer=transfer,
            groups=groups,
        )
        late_wrapper: LateJoiningSubscriber | None = None
        if late:
            late_wrapper = LateJoiningSubscriber(subscriber)
            self.broadcast_channel.subscribe(late_wrapper.on_frame)
        else:
            self.broadcast_channel.subscribe(subscriber.on_frame)
        handle = SubscriberHandle(member, subscriber, late_wrapper)
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
        container = self.document.container
        for __ in range(cycles):
            self.publisher.broadcast_document(container)
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
            Subject(handle.member.name, handle.subscriber.groups)
            for handle in self._handles
        ]
        return self.publisher.preview_views(
            events,
            rules,
            subjects,
            default=Sign.DENY,
            mode=mode,
        )

    def set_tamper(
        self, tamper: "Callable[[str, int, bytes], bytes] | None"
    ) -> None:
        """Install (or clear) an in-channel adversary."""
        self.broadcast_channel.set_tamper(tamper)
