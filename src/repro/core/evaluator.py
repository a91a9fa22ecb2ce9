"""The lane: one compiled policy's matches on a product engine.

A lane is a compiled policy registered with an evaluation engine
(:mod:`repro.core.product`): :func:`add_lane` gives each of the
policy's automata a sink, and the matches the engine reports during
one ``open`` collect in the list it returns.  The driver clears that
list before the open and hands it to the delivery engine
(:mod:`repro.core.delivery`), whose record for the new element folds
the matches into a fresh :class:`~repro.core.decisions.DecisionNode`,
or, with none, takes its parent's.

Every evaluation is built from lanes.  The user *query* (pull
scenarios) is a one-rule policy under a closed-world default (see
:func:`~repro.core.compiled.compile_query`), so "the authorized subpart
matching the query" (Section 2) is the conjunction of two lanes, taken
by the delivery engine.  A broadcast runs N lanes on one shared engine
(:mod:`repro.core.multicast`).
"""

from __future__ import annotations

from repro.core.compiled import CompiledPolicy
from repro.core.conditions import Condition
from repro.core.decisions import Matches
from repro.core.product import ProductEngine
from repro.core.rules import Sign


class _LaneSink:
    """Routes one automaton's completed matches to its lane's list."""

    __slots__ = ("collected", "sign")

    def __init__(self, collected: Matches, sign: Sign) -> None:
        self.collected = collected
        self.sign = sign

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.collected.append((self.sign, conditions))


def add_lane(engine: ProductEngine, policy: CompiledPolicy) -> Matches:
    """Register ``policy``'s automata with ``engine``; return the list
    its matches collect in.

    An engine running this lane alone adopts the policy's solved tables.
    """
    collected: Matches = []
    engine.add_policy(policy, [_LaneSink(collected, sign) for sign in policy.signs])
    return collected
