"""An unsecured broadcast channel with a bandwidth model."""

from __future__ import annotations

from typing import Callable, Iterable

from repro.crypto.container import DocumentContainer
from repro.smartcard.card import encode_header
from repro.smartcard.resources import SimClock

#: One broadcast frame: ``(kind, index, payload)`` with ``kind`` one of
#: ``"header"``, ``"chunk"`` or ``"end"``.
Frame = tuple[str, int, bytes]


def container_frames(container: DocumentContainer) -> list[Frame]:
    """The frames one cycle of ``container`` puts on the air.

    The header, every chunk in order, then an empty ``end`` frame.  A
    container version always yields the identical sequence, so a
    recorded cycle replays indistinguishably from a live one.
    """
    frames: list[Frame] = [("header", 0, encode_header(container.header))]
    frames.extend(
        ("chunk", index, blob) for index, blob in enumerate(container.chunks)
    )
    frames.append(("end", 0, b""))
    return frames


class BroadcastChannel:
    """Delivers frames from one publisher to every subscriber.

    The channel is *unsecured*: anything on it is ciphertext, and the
    tamper tests inject corrupted frames here.  Broadcast time is
    charged once regardless of the number of subscribers.
    """

    def __init__(
        self,
        bandwidth_bytes_per_second: float = 512 * 1024.0,
        clock: SimClock | None = None,
    ) -> None:
        self.bandwidth = bandwidth_bytes_per_second
        self.clock = clock or SimClock()
        self._listeners: list[Callable[[str, int, bytes], None]] = []
        self.bytes_broadcast = 0
        self.frames_broadcast = 0
        self._tamper: Callable[[str, int, bytes], bytes] | None = None

    def subscribe(self, listener: Callable[[str, int, bytes], None]) -> None:
        """Register a subscriber callback ``(kind, index, payload)``."""
        self._listeners.append(listener)

    def set_tamper(
        self, tamper: Callable[[str, int, bytes], bytes] | None
    ) -> None:
        """Install an in-channel adversary (None removes it)."""
        self._tamper = tamper

    def broadcast(self, kind: str, index: int, payload: bytes) -> None:
        """Push one frame to all subscribers."""
        self.bytes_broadcast += len(payload)
        self.frames_broadcast += 1
        self.clock.add("broadcast", len(payload) / self.bandwidth)
        if self._tamper is not None:
            payload = self._tamper(kind, index, payload)
        for listener in self._listeners:
            listener(kind, index, payload)

    def send(self, frames: Iterable[Frame]) -> None:
        """Push a frame sequence (e.g. one carousel cycle), in order."""
        for kind, index, payload in frames:
            self.broadcast(kind, index, payload)
