"""The one freshness rule for everything cached against the DSP store.

A :class:`Freshness` is what a holder -- a view-cache entry, a feed
catch-up snapshot, the reactor's response cache -- remembers about the
store it copied from:

* the store stamp ``(generation, boot)``: the store's mutation counter
  and its per-process boot nonce.  The counter restarts at 0 in every
  process, so it only means something next to the boot nonce;
* per-document ``(doc_version, rules_version)`` pairs, the
  authoritative validators (empty for holders that have none).

:meth:`Freshness.revalidate` is the single rule:

* equal stamps -- nothing at the store changed, the holding is fresh
  and no versions are read;
* otherwise the holding is fresh only if the current versions equal
  the held ones, and the holder then keeps the returned, re-stamped
  value so the next check takes the stamp path.

A holder without versions (the reactor's response cache) must compare
stamps only, through :meth:`Freshness.same_stamp`: with nothing to
compare, a version match would always pass and serve stale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Freshness", "UNSTAMPED", "Versions"]

#: ``(doc_version, rules_version)`` per document, in the holder's order.
Versions = tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class Freshness:
    """A store stamp plus the per-document versions it vouches for."""

    generation: int
    boot: str
    versions: Versions = ()

    def same_stamp(self, other: "Freshness") -> bool:
        """Whether nothing at the store changed between the two stamps.

        An empty ``boot`` marks an unstamped holding, which never
        matches: it must pass one version check first.
        """
        return (
            bool(self.boot)
            and self.boot == other.boot
            and self.generation == other.generation
        )

    def revalidate(
        self, stamp: "Freshness", versions: "Callable[[], Versions | None]"
    ) -> "Freshness | None":
        """The freshness to hold from now on, or ``None`` when stale.

        ``stamp`` is the store's current stamp (its versions are not
        used); ``versions`` reads the current per-document versions and
        is only called when the stamps differ.  It may return ``None``
        when the holding can no longer be compared (its document set
        changed), which is stale.
        """
        if self.same_stamp(stamp):
            return self
        current = versions()
        if current is None or current != self.versions:
            return None
        return Freshness(stamp.generation, stamp.boot, current)


#: The stamp of a holding that has not been validated yet.
UNSTAMPED = Freshness(-1, "")
