"""The one freshness rule for everything cached against the DSP store.

A :class:`Freshness` is what a holder -- a view-cache entry, the
reactor's response cache -- remembers about the store it copied from:

* the store stamp ``(generation, boot)``: the store's mutation counter
  and its per-process boot nonce.  The counter restarts at 0 in every
  process, so it only means something next to the boot nonce;
* per-document ``(doc_version, rules_version)`` pairs, the
  authoritative validators (empty for holders that have none).

:meth:`Freshness.revalidate` is the single rule:

* equal stamps -- nothing at the store changed, the holding is fresh
  and the versions are not compared;
* otherwise the holding is fresh only if the current versions equal
  the held ones, and the holder then keeps the current, re-stamped
  value so the next check takes the stamp path.

A holder without versions (the reactor's response cache) must compare
stamps only, through :meth:`Freshness.same_stamp`: with nothing to
compare, a version match would always pass and serve stale bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def revalidate(self, current: "Freshness") -> "Freshness | None":
        """The freshness to hold from now on, or ``None`` when stale.

        ``current`` is the store's current stamp with the current
        versions of the held documents.  Equal stamps keep ``self``
        (the versions are not compared); equal versions keep
        ``current``.
        """
        if self.same_stamp(current):
            return self
        return current if current.versions == self.versions else None


#: The stamp of a holding that has not been validated yet.
UNSTAMPED = Freshness(-1, "")
