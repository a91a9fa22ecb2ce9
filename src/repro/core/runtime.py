"""Shared vocabulary of the evaluation engine.

The engine itself is :class:`~repro.core.product.ProductEngine`; this
module holds what its callers and the card's resource model share with
it: the modeled secure-RAM sizes of its structures, the
:class:`MatchSink` protocol a completed match is reported through, and
the :class:`EngineStats` counters the cycle model charges.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.conditions import Condition

#: Modeled sizes (bytes) of runtime structures inside the card's secure
#: RAM.  Chosen to reflect a compact C implementation on the target
#: hardware; the resource model charges these, not Python object sizes.
TOKEN_BYTES = 8
CONDITION_BYTES = 6
WATCHER_BYTES = 10
FRAME_BYTES = 6


class MatchSink(Protocol):
    """Receives completed matches of a root automaton."""

    def on_match(self, conditions: frozenset[Condition]) -> None:
        """A match completed, guarded by the given pending conditions."""


class EngineStats:
    """Counters the resource model turns into card CPU cycles.

    ``events`` through ``watcher_bytes`` feed the *modeled* clock: they
    count the classic token-stack evaluation's work (tokens checked and
    advanced, conditions created, text bytes fed to watchers).  The
    last three observe the *wall-clock* dispatch cost of the product
    machine: ``events_pumped`` is a read-only alias of ``events``
    (every event goes through the one engine; the name is kept for
    readers that predate that), ``tokens_touched`` counts the
    Python-level position work actually performed (positions examined
    by transition builds and memo builds, plus the positions and
    guarded token groups a step works on per node -- memoized parts
    touch nothing), and
    ``product_states_interned`` counts the state sets this engine had
    to intern.  Those two count *solving* work: an engine running a
    compiled policy alone adopts the tables the policy owns, so it
    only pays for what no earlier session under that policy solved.
    Their values for one session therefore depend on which sessions
    ran before it in the process; the modeled counters never do.
    A rising ``tokens_touched / events_pumped`` ratio is a
    dispatch-cost regression.
    """

    __slots__ = (
        "events",
        "token_checks",
        "token_advances",
        "conditions_created",
        "watcher_bytes",
        "tokens_touched",
        "product_states_interned",
    )

    def __init__(self) -> None:
        self.events = 0
        self.token_checks = 0
        self.token_advances = 0
        self.conditions_created = 0
        self.watcher_bytes = 0
        self.tokens_touched = 0
        self.product_states_interned = 0

    @property
    def events_pumped(self) -> int:
        """Events the product machine dispatched: all of them."""
        return self.events
