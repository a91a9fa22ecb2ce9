"""The bounded, version-keyed authorized-view cache.

An entry is one *completed* pull session's output: the settled view
text, the stream pieces that produced it (so a cache hit replays as a
normal ``ViewStream``), and its :class:`~repro.dsp.freshness.Freshness`
-- the document's ``(doc_version, rules_version)`` captured from the
pull itself, plus the store stamp of the last successful validation.
Freshness is decided by the shared rule
(:meth:`~repro.dsp.freshness.Freshness.revalidate`): a matching stamp
means nothing at the store changed; otherwise the versions must match,
and the entry is re-stamped.  A stamp mismatch (another document
changed, or another process booted the store) can cause a probe, never
a false hit.

Freshness is always established against a live
:class:`~repro.dsp.wire.DocMeta` probe -- one tiny ``GET_META`` round
trip -- before anything is served.  Two hard security rules:

* a probe reporting ``has_key=False`` (the subject's wrapped key is
  gone -- key-level revocation) purges every entry for that
  ``(document, subject)`` and refuses service; a revoked subject is
  **never** served from cache;
* entries are only ever written by *cleanly completed* streams
  (``Session`` records through the cache after exhaustion); failed or
  aborted pulls never populate.

Capacity is bounded twice -- entry count and total byte budget -- with
LRU eviction, so a terminal's cache cannot grow without bound however
many documents it touches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.cache import semantic
from repro.dsp.freshness import UNSTAMPED, Freshness
from repro.dsp.wire import DocMeta

__all__ = [
    "CacheKey",
    "CacheStats",
    "CachedView",
    "ViewCache",
]

#: Fixed per-entry overhead charged against the byte budget (key,
#: validators, index slots) so a flood of empty views still evicts.
_ENTRY_OVERHEAD = 256

#: One cached stream piece: ``(kind, text, position, entry_id)`` --
#: the immutable image of a :class:`~repro.terminal.proxy.ViewPiece`.
PieceTuple = tuple[str, str, int, "int | None"]


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Everything that selects a distinct authorized view.

    ``strategy``/``view_mode`` are the enum *values* (``"buffer"``,
    ``"skeleton"``, ...) so the key stays hashable and printable;
    ``groups`` ride along because group-subject rules change the
    composed policy, hence the bytes.
    """

    doc_id: str
    subject: str
    query: str | None
    strategy: str
    view_mode: str
    groups: frozenset[str] = frozenset()

    @property
    def base(self) -> tuple[str, str, str, str, frozenset[str]]:
        """The key minus the query -- the semantic-donor bucket."""
        return (
            self.doc_id,
            self.subject,
            self.strategy,
            self.view_mode,
            self.groups,
        )


@dataclass(slots=True)
class CachedView:
    """One completed authorized view with its freshness validators."""

    key: CacheKey
    xml: str
    pieces: tuple[PieceTuple, ...]
    fragments: tuple[tuple[int, str], ...]
    #: The document's versions plus the store stamp of the last
    #: successful validation; an entry recorded from a pull is
    #: unstamped and must pass one version check first.
    freshness: Freshness
    size: int = 0

    def __post_init__(self) -> None:
        if not self.size:
            text_bytes = len(self.xml.encode("utf-8"))
            text_bytes += sum(
                len(text.encode("utf-8")) for _, text, _, _ in self.pieces
            )
            text_bytes += sum(
                len(text.encode("utf-8")) for _, text in self.fragments
            )
            self.size = text_bytes + _ENTRY_OVERHEAD


@dataclass(slots=True)
class CacheStats:
    """Counters the profiler and the E19 benchmark read."""

    hits: int = 0
    semantic_hits: int = 0
    misses: int = 0
    probes: int = 0
    invalidations: int = 0
    evictions: int = 0
    revocation_refusals: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            key: value
            for key, value in (
                (slot, getattr(self, slot)) for slot in self.__slots__
            )
            if isinstance(value, int)
        }


class ViewCache:
    """A bounded LRU + byte-budget cache of completed authorized views."""

    def __init__(
        self, *, max_entries: int = 256, max_bytes: int = 16 << 20
    ) -> None:
        if max_entries < 1 or max_bytes < 1:
            raise ValueError("cache bounds must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CachedView]" = OrderedDict()
        self._by_base: dict[
            tuple[str, str, str, str, frozenset[str]], set[CacheKey]
        ] = {}
        self._bytes = 0

    # -- introspection -----------------------------------------------------

    def count(self, slot: str, delta: int = 1) -> None:
        """Bump one stats counter."""
        setattr(self.stats, slot, getattr(self.stats, slot) + delta)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def entry(self, key: CacheKey) -> CachedView | None:
        """The raw entry (no freshness check, no LRU touch); tests only."""
        return self._entries.get(key)

    # -- lookup ------------------------------------------------------------

    def lookup(
        self, key: CacheKey, meta: DocMeta
    ) -> "tuple[CachedView, bool] | None":
        """A fresh entry answering ``key``, or ``None`` (a miss).

        The boolean is ``True`` when the answer was *derived* -- a
        semantic hit computed from a covering donor and stored as a
        first-class entry so the next identical query is an exact hit.
        ``meta`` must come from a probe the caller just made; a
        ``has_key=False`` probe must be handled (and refused) by the
        caller *before* lookup -- this method asserts the contract.
        """
        assert meta.has_key, "revoked subjects must be refused before lookup"
        current = meta.freshness
        exact = self._entries.get(key)
        if exact is not None:
            if self._fresh(exact, current):
                self._entries.move_to_end(key)
                self.count("hits")
                return exact, False
            self._drop(key, stale=True)
        derived = self._semantic(key, current)
        if derived is not None:
            self.count("semantic_hits")
            return derived, True
        self.count("misses")
        return None

    def _semantic(
        self, key: CacheKey, current: Freshness
    ) -> CachedView | None:
        if key.query is None or not semantic.answerable(
            key.query, key.strategy, key.view_mode
        ):
            return None
        peers = self._by_base.get(key.base)
        if not peers:
            return None
        # Most-recently-used donors first; stale peers found along the
        # way are dropped -- the probe just proved them outdated.
        for donor_key in reversed(list(self._entries)):
            if donor_key not in peers or donor_key == key:
                continue
            donor = self._entries[donor_key]
            if not self._fresh(donor, current):
                self._drop(donor_key, stale=True)
                continue
            if not semantic.covers(donor_key.query, key.query):
                continue
            answer = semantic.answer_from_view(donor.xml, key.query)
            if answer is None:
                continue
            derived = CachedView(
                key=key,
                xml=answer,
                pieces=(("view", answer, 0, None),) if answer else (),
                fragments=(),
                # The donor was just validated, so it already carries
                # the probe's stamp.
                freshness=donor.freshness,
            )
            self.put(derived)
            return derived
        return None

    @staticmethod
    def _fresh(entry: CachedView, current: Freshness) -> bool:
        held = entry.freshness.revalidate(current)
        if held is None:
            return False
        entry.freshness = held
        return True

    # -- population --------------------------------------------------------

    def record(
        self,
        key: CacheKey,
        *,
        xml: str,
        pieces: "tuple[PieceTuple, ...]",
        fragments: "tuple[tuple[int, str], ...]",
        doc_version: "int | None",
        rules_version: "int | None",
    ) -> CachedView | None:
        """Store one cleanly completed session's output.

        Returns ``None`` (and stores nothing) when the pull did not
        report its versions -- without validators an entry could never
        be proven fresh, so it is useless.
        """
        if doc_version is None or rules_version is None:
            return None
        entry = CachedView(
            key=key,
            xml=xml,
            pieces=pieces,
            fragments=fragments,
            freshness=replace(
                UNSTAMPED, versions=((doc_version, rules_version),)
            ),
        )
        self.put(entry)
        return entry

    def put(self, entry: CachedView) -> None:
        """Insert (or replace) one entry and enforce the bounds."""
        if entry.size > self.max_bytes:
            return  # one oversized view must not wipe the whole cache
        key = entry.key
        if key in self._entries:
            self._drop(key, stale=False)
        self._entries[key] = entry
        self._by_base.setdefault(key.base, set()).add(key)
        self._bytes += entry.size
        self.count("stores")
        while self._entries and (
            len(self._entries) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            oldest = next(iter(self._entries))
            self._drop(oldest, stale=False)
            self.count("evictions")

    # -- invalidation ------------------------------------------------------

    def _drop(self, key: CacheKey, *, stale: bool) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        peers = self._by_base.get(key.base)
        if peers is not None:
            peers.discard(key)
            if not peers:
                del self._by_base[key.base]
        self._bytes -= entry.size
        if stale:
            self.count("invalidations")

    def refuse_revoked(self, doc_id: str, subject: str) -> int:
        """Purge everything cached for a revoked ``(document, subject)``.

        Called when a probe comes back ``has_key=False``; counts the
        refusal so the differential suite can assert zero serves.
        """
        dropped = self.invalidate_subject(doc_id, subject)
        self.count("revocation_refusals")
        return dropped

    def invalidate_subject(self, doc_id: str, subject: str) -> int:
        """Drop every entry for one subject on one document."""
        doomed = [
            key
            for key in self._entries
            if key.doc_id == doc_id and key.subject == subject
        ]
        for key in doomed:
            self._drop(key, stale=True)
        return len(doomed)

    def invalidate_document(self, doc_id: str) -> int:
        """Drop every entry for one document (republish, rules change)."""
        doomed = [key for key in self._entries if key.doc_id == doc_id]
        for key in doomed:
            self._drop(key, stale=True)
        return len(doomed)

    def clear(self) -> int:
        """Drop everything (epoch change / explicit flush)."""
        dropped = len(self._entries)
        self._entries.clear()
        self._by_base.clear()
        self._bytes = 0
        self.count("invalidations", dropped)
        return dropped
