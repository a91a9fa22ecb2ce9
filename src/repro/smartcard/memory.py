"""Secure-RAM accounting for the simulated card.

The Python process obviously uses more than 1 KB; what the meter tracks
is the *modeled* RAM a compact C implementation of the same structures
would occupy on the card (each structure declares its modeled size, see
e.g. ``TOKEN_BYTES`` in :mod:`repro.core.runtime`).  Experiment E5
reports the high-water mark and checks it stays under the e-gate's
1 KB; ``strict`` mode turns an overflow into a hard fault, which the
failure-injection tests exercise.

Secure RAM is an integer ledger, like the card CPU's cycle count.  The
total in use (:attr:`MemoryMeter.used`), its high-water mark and the
ceiling are plain integers, and so are the three pools charged per
decoded element (:data:`HOT_TAGS`: engine frames, decision signs and
pending output).  The evaluator charges those pools inline -- one add,
one compare against :attr:`MemoryMeter.limit`, one compare against the
high-water mark -- and hands only a charge past the quota to
:meth:`MemoryMeter.overflow`.  Tags charged once per session
(``automata``, ``decoder``, ...) go through :meth:`MemoryMeter.allocate`.
"""

from __future__ import annotations

import sys

from repro.errors import ResourceExhausted

DEFAULT_QUOTA = 1024  # bytes of application RAM on the e-gate card

#: The pools charged per decoded element, each an integer attribute of
#: the meter: ``engine`` (product-machine frames, tokens, conditions,
#: watchers), ``signs`` (decision nodes) and ``pending`` (buffered
#: output of undecided elements).
HOT_TAGS = ("engine", "signs", "pending")


class CardMemoryError(ResourceExhausted, MemoryError):
    """The applet exceeded the card's secure working memory."""

    def __init__(self, requested: int, used: int, quota: int) -> None:
        super().__init__(
            f"secure RAM exhausted: {used} + {requested} bytes over "
            f"quota {quota}"
        )
        self.requested = requested
        self.used = used
        self.quota = quota


class MemoryMeter:
    """Tracks modeled allocations per tag, with quota and high-water.

    ``strict=False`` records overflows (for measurement sweeps) instead
    of raising.  An inline charge of ``n`` bytes to a hot pool is::

        used = meter.used + n
        if used > meter.limit:
            meter.overflow("engine", n)
        else:
            meter.used = used
            meter.engine += n
            if used > meter.high_water:
                meter.high_water = used

    and an inline release subtracts ``n`` from ``used`` and the pool.
    """

    __slots__ = (
        "_quota", "strict", "limit", "used", "high_water", "overflowed",
        "engine", "signs", "pending", "_usage",
    )

    def __init__(self, quota: int | None = DEFAULT_QUOTA, strict: bool = True) -> None:
        self._quota = quota
        self.strict = strict
        #: The ceiling a charge is compared against: the quota, or no
        #: ceiling at all.
        self.limit = sys.maxsize if quota is None else quota
        #: Bytes in use, over every tag.
        self.used = 0
        self.high_water = 0
        self.overflowed = False
        self.engine = 0
        self.signs = 0
        self.pending = 0
        #: The tags outside :data:`HOT_TAGS`.
        self._usage: dict[str, int] = {}

    @property
    def quota(self) -> int | None:
        return self._quota

    def allocate(self, tag: str, nbytes: int) -> None:
        """Charge ``nbytes`` against the quota."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.used + nbytes > self.limit:
            self.overflow(tag, nbytes)
        else:
            self._charge(tag, nbytes)

    def overflow(self, tag: str, nbytes: int) -> None:
        """A charge that would pass the quota.

        A strict meter raises :class:`CardMemoryError` and charges
        nothing; a soft one records the overflow and charges.
        """
        if self.strict:
            raise CardMemoryError(nbytes, self.used, self._quota)
        self.overflowed = True
        self._charge(tag, nbytes)

    def _charge(self, tag: str, nbytes: int) -> None:
        if tag in HOT_TAGS:
            setattr(self, tag, getattr(self, tag) + nbytes)
        else:
            self._usage[tag] = self._usage.get(tag, 0) + nbytes
        self.used += nbytes
        if self.used > self.high_water:
            self.high_water = self.used

    def release(self, tag: str, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        held = self.usage(tag)
        if nbytes > held:
            raise ValueError(
                f"releasing {nbytes} bytes from {tag!r} which holds {held}"
            )
        if tag in HOT_TAGS:
            setattr(self, tag, held - nbytes)
        else:
            self._usage[tag] = held - nbytes
        self.used -= nbytes

    def usage(self, tag: str | None = None) -> int:
        """Current usage of one tag, or total."""
        if tag is None:
            return self.used
        if tag in HOT_TAGS:
            return getattr(self, tag)
        return self._usage.get(tag, 0)

    def breakdown(self) -> dict[str, int]:
        """Current per-tag usage (non-zero tags only)."""
        held = {tag: used for tag, used in self._usage.items() if used}
        for tag in HOT_TAGS:
            used = getattr(self, tag)
            if used:
                held[tag] = used
        return held

    def release_to(self, mark: dict[str, int]) -> None:
        """Release every tag down to its usage in ``mark`` (a
        :meth:`breakdown` taken earlier); the high-water mark stays."""
        for tag, used in self.breakdown().items():
            excess = used - mark.get(tag, 0)
            if excess > 0:
                self.release(tag, excess)
