"""Selective data dissemination (the paper's push scenario).

"our approach can support push-based scenarios (e.g., selective data
dissemination) in a very similar way" (Section 2) -- and the second
demo application is "the selective dissemination of multimedia streams
through unsecured channels" (Section 3).

This package is the single push-path core.  A publisher turns a
sealed container into frames (:func:`container_frames`) and sends
them, cycle after cycle, over an unsecured :class:`BroadcastChannel`;
every member's :class:`SubscriberHandle` joins at the next header and
runs one card :class:`Subscriber` session per document, filtering the
stream against the member's own access rules.  There is no
backchannel, so skipping cannot save *broadcast* bandwidth -- but a
subscriber's terminal still drops the chunks its card does not need,
saving the card link and decryption time, which is what makes
real-time rates reachable (E7).

``community.Channel`` (one document, per-member keys) and
``feeds.Feed`` (tiered group keys, catch-up from the store) are thin
adapters over this core: they differ only in how a handle's card gets
each document's secret.
"""

from repro.dissemination.channel import BroadcastChannel, Frame, container_frames
from repro.dissemination.subscriber import Subscriber, SubscriberHandle

__all__ = [
    "BroadcastChannel",
    "Frame",
    "Subscriber",
    "SubscriberHandle",
    "container_frames",
]
