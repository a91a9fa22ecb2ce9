"""The lane: one compiled policy's decisions over a product engine.

Binds together the evaluation engine (:mod:`repro.core.product`) and
the decision chain (:mod:`repro.core.decisions`): on every ``open`` the
engine advances all automata and the direct matches it reports for the
new node are folded into a fresh :class:`DecisionNode`; on ``close``
the engine backtracks the automata and finalizes the predicate
conditions anchored at the node, and the decision is popped.

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
from repro.core.decisions import DecisionNode
from repro.core.product import ProductEngine
from repro.core.rules import Sign


class _LaneSink:
    """Routes one automaton's completed matches to its lane's list.

    It holds the list, not the lane: the lane holds the engine, which
    holds this sink, so a back reference to the lane would make every
    session a reference cycle left to the cyclic collector.
    """

    __slots__ = ("collected", "sign")

    def __init__(
        self, collected: list[tuple[Sign, frozenset[Condition]]], sign: Sign
    ) -> None:
        self.collected = collected
        self.sign = sign

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.collected.append((self.sign, conditions))


class Lane:
    """The decision stack of one :class:`CompiledPolicy` on an engine.

    Construction registers the policy's automata with ``engine`` (one
    sink per automaton); an engine running this lane alone adopts the
    policy's solved tables.  The matches the engine reports during one
    ``open`` collect in :attr:`collected`, which the new node's
    :class:`DecisionNode` folds in.  The driver steps the engine and the
    stack: :class:`~repro.core.pipeline.AccessController` inline, for a
    metered lane alone on its engine, and the unmetered lanes sharing
    one engine (:mod:`repro.core.multicast`) through :meth:`push` and
    :meth:`pop`.
    """

    __slots__ = ("engine", "decisions", "collected")

    def __init__(self, engine: ProductEngine, policy: CompiledPolicy) -> None:
        self.engine = engine
        self.decisions: list[DecisionNode] = [
            DecisionNode.default_root(policy.default)
        ]
        self.collected: list[tuple[Sign, frozenset[Condition]]] = []
        engine.add_policy(
            policy, [_LaneSink(self.collected, sign) for sign in policy.signs]
        )

    def push(self) -> DecisionNode:
        """Fold the collected matches into the decision of the node the
        shared engine just opened."""
        node = DecisionNode(self.decisions[-1], self.collected)
        self.decisions.append(node)
        return node

    def pop(self) -> None:
        """Drop the innermost node's decision."""
        self.decisions.pop()
