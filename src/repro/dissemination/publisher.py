"""Publisher side of the push scenario.

Besides broadcasting sealed chunks, the head-end (which holds the
plaintext and the policy *before* sealing) can preflight the whole
audience in one parse pass via
:func:`preview_subscriber_views` -- the shared-pass amortization that
makes wide dissemination scale.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.core.multicast import multicast_view_texts
from repro.core.rules import RuleSet, Sign, Subject
from repro.crypto.container import DocumentContainer
from repro.dissemination.channel import BroadcastChannel
from repro.smartcard.card import encode_header
from repro.xmlstream.events import Event


def preview_subscriber_views(
    events: Iterable[Event],
    rules: RuleSet,
    subscribers: Sequence[Subject | str],
    default: Sign = Sign.DENY,
    mode: ViewMode = ViewMode.SKELETON,
    registry: PolicyRegistry | None = None,
) -> dict[str, str]:
    """What each subscriber's card will emit, computed in ONE pass.

    The head-end holds the plaintext and the policy before sealing, so
    it can preflight the whole audience: one
    :class:`~repro.core.multicast.MultiSubjectEvaluator` pass over the
    document yields every subscriber's authorized view -- N views for
    the price of one parse, instead of N independent evaluations.
    Used to validate a policy change against the subscriber base
    before re-broadcasting.
    """
    return multicast_view_texts(
        events, rules, subscribers, default=default, mode=mode, registry=registry
    )


class StreamPublisher:
    """Broadcasts a sealed document over a channel, chunk by chunk.

    In the demo this is the multimedia-stream head-end: the container
    is produced once (by :func:`repro.terminal.api.publish_document`) and
    then pushed; subscribers' rights differ, the broadcast does not.

    The publisher owns a :class:`~repro.core.compiled.PolicyRegistry`
    so repeated preflights (one per policy revision) reuse compiled
    automata across revisions that share sub-policies.
    """

    def __init__(
        self,
        channel: BroadcastChannel,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.channel = channel
        self.registry = registry if registry is not None else PolicyRegistry()

    def broadcast_document(self, container: DocumentContainer) -> None:
        """Send the header followed by every chunk, in order."""
        self.channel.broadcast(
            "header", 0, encode_header(container.header)
        )
        for index, blob in enumerate(container.chunks):
            self.channel.broadcast("chunk", index, blob)
        self.channel.broadcast("end", 0, b"")

    def preview_views(
        self,
        events: Iterable[Event],
        rules: RuleSet,
        subscribers: Sequence[Subject | str],
        default: Sign = Sign.DENY,
        mode: ViewMode = ViewMode.SKELETON,
    ) -> dict[str, str]:
        """Shared-pass policy preflight over this publisher's registry."""
        return preview_subscriber_views(
            events,
            rules,
            subscribers,
            default=default,
            mode=mode,
            registry=self.registry,
        )
