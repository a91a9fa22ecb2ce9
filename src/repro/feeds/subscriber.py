"""One member's receiving end of a feed tier lane.

A tier lane carries *several* documents per carousel cycle, while a
:class:`~repro.dissemination.subscriber.Subscriber` runs exactly one
document session.  :class:`FeedSubscriberHandle` bridges the two: each
``header`` frame routes to (or lazily creates) the per-document
subscriber on the member's one card, resolving the document secret
through the tier key hierarchy on first sight -- so a member joining
mid-cycle, or before a document even existed, needs no re-grant.

Like the carousel's late joiner, frames arriving before the handle has
engaged a document (the tail of a cycle already in progress) are
counted and discarded; completed documents ignore repeat cycles.

Card refusals surface exactly as in the flat channel: recorded per
document, converted to the typed :mod:`repro.errors` taxonomy by
:meth:`require_ok`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.delivery import ViewMode
from repro.dissemination.subscriber import Subscriber
from repro.errors import KeyNotGranted, ReproError, TransportError
from repro.feeds.keys import (
    ResolvedTierKeys,
    resolve_doc_secret,
    tier_prefix,
)
from repro.smartcard.card import decode_header
from repro.smartcard.resources import SessionMetrics
from repro.terminal.transfer import TransferPolicy

if TYPE_CHECKING:
    from repro.community.facade import Member
    from repro.feeds.feed import Feed


class FeedSubscriberHandle:
    """A member's multi-document subscription to one feed tier."""

    def __init__(
        self,
        feed: "Feed",
        member: "Member",
        tier: str,
        keys: ResolvedTierKeys,
        *,
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
    ) -> None:
        self.feed = feed
        self.member = member
        self.tier = tier
        self.group = tier_prefix(feed.name, tier)
        self.keys = keys
        self._view_mode = view_mode
        self._transfer = transfer
        self._subscribers: dict[str, Subscriber] = {}
        self._order: list[str] = []
        self._current: Subscriber | None = None
        self._provisioned: set[str] = set()
        #: Frames discarded before the handle engaged any document (the
        #: tail of the cycle in progress when the member tuned in).
        self.frames_missed = 0
        #: Set by ``Feed.revoke``: a detached handle ignores every
        #: further frame, so a revoked member's view never grows.
        self.revoked = False
        self._failure: ReproError | None = None

    def __repr__(self) -> str:
        return (
            f"FeedSubscriberHandle({self.member.name!r}, "
            f"feed={self.feed.name!r}, tier={self.tier!r})"
        )

    # -- broadcast listener ----------------------------------------------

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        """Channel callback: route frames to per-document sessions."""
        if self.revoked or self._failure is not None:
            return
        if kind == "header":
            try:
                self._current = self._engage(decode_header(payload).doc_id)
            except ReproError as exc:
                # A key-resolution failure (e.g. a grant withdrawn
                # between cycles) must not unwind the publisher's
                # broadcast loop through the channel callback; it is
                # recorded and surfaced by require_ok().
                self._failure = exc
                self._current = None
                return
        elif self._current is None:
            self.frames_missed += 1
            return
        self._current.on_frame(kind, index, payload)
        if kind == "end":
            self._current = None

    def _engage(self, doc_id: str) -> Subscriber:
        subscriber = self._subscribers.get(doc_id)
        if subscriber is not None:
            return subscriber
        if doc_id not in self._provisioned:
            secret = resolve_doc_secret(
                self.member.community.dsp,
                self.keys,
                self.feed.name,
                self.tier,
                doc_id,
            )
            self.member.proxy.provision_key(doc_id, secret)
            self._provisioned.add(doc_id)
        stored = self.feed.stored(doc_id)
        subscriber = Subscriber(
            self.member.name,
            self.member.card,
            stored.rules_version,
            list(stored.rule_records),
            clock=self.member.community.clock,
            view_mode=self._view_mode,
            registry=self.member.community.registry,
            transfer=self._transfer,
            groups=frozenset({self.group}),
        )
        self._subscribers[doc_id] = subscriber
        self._order.append(doc_id)
        return subscriber

    # -- results ----------------------------------------------------------

    @property
    def views(self) -> dict[str, str]:
        """Per-document authorized views, in first-engagement order."""
        return {
            doc_id: self._subscribers[doc_id].view for doc_id in self._order
        }

    @property
    def view(self) -> str:
        """The concatenated authorized view across the tier's documents."""
        return "".join(self.views.values())

    def metrics_for(self, doc_id: str) -> SessionMetrics:
        """The card/link metrics of one document's session."""
        subscriber = self._subscribers.get(doc_id)
        if subscriber is None:
            raise KeyNotGranted(
                f"{self.member.name!r} never engaged document {doc_id!r} "
                f"on feed {self.feed.name!r}",
                doc_id=doc_id,
                subject=self.member.name,
            )
        return subscriber.metrics

    @property
    def docs_complete(self) -> int:
        return sum(
            1 for sub in self._subscribers.values() if sub.state.document_done
        )

    @property
    def ok(self) -> bool:
        return (
            not self.revoked
            and self._failure is None
            and bool(self._subscribers)
            and all(sub.ok for sub in self._subscribers.values())
        )

    def require_ok(self) -> None:
        """Raise the typed error behind any failed document session."""
        if self._failure is not None:
            raise self._failure
        if self.revoked:
            raise KeyNotGranted(
                f"{self.member.name!r} was revoked from tier {self.tier!r} "
                f"of feed {self.feed.name!r}",
                subject=self.member.name,
            )
        if not self._subscribers:
            raise TransportError(
                f"subscriber {self.member.name!r} never saw a header frame "
                f"on feed {self.feed.name!r}",
                subject=self.member.name,
            )
        for subscriber in self._subscribers.values():
            subscriber.require_ok()
