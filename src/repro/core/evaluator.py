"""The lane: one compiled policy's decisions over a product engine.

Binds together the evaluation engine (:mod:`repro.core.product`) and
the decision chain (:mod:`repro.core.decisions`): on every ``open`` the
engine advances all automata and the direct matches it reports for the
new node are folded into a fresh :class:`DecisionNode`; ``close``
backtracks the automata, finalizes the predicate conditions anchored at
the node and pops the decision.

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
from repro.core.decisions import DECISION_BYTES, DecisionNode
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
    :class:`DecisionNode` folds in.

    A lane alone on its engine runs :meth:`open` and :meth:`close`, one
    call per element; with a ``memory`` meter each open decision is
    charged inline to its ``signs`` pool.  Lanes sharing one engine
    (:mod:`repro.core.multicast`) are unmetered: their caller clears
    :attr:`collected`, steps the engine once, and runs :meth:`push` and
    :meth:`pop` on every lane.
    """

    __slots__ = ("engine", "policy", "decisions", "collected", "_memory")

    def __init__(
        self, engine: ProductEngine, policy: CompiledPolicy, memory=None
    ) -> None:
        self.engine = engine
        self.policy = policy
        self._memory = memory
        self.decisions: list[DecisionNode] = [
            DecisionNode.default_root(policy.default)
        ]
        self.collected: list[tuple[Sign, frozenset[Condition]]] = []
        engine.add_policy(
            policy, [_LaneSink(self.collected, sign) for sign in policy.signs]
        )

    def open(self, tag: str) -> DecisionNode:
        """Advance a lane that is alone on its engine; return the new
        node's decision."""
        collected = self.collected
        collected.clear()
        self.engine.open(tag)
        decisions = self.decisions
        node = DecisionNode(decisions[-1], collected)
        memory = self._memory
        if memory is not None:
            used = memory.used + DECISION_BYTES
            if used > memory.limit:
                memory.overflow("signs", DECISION_BYTES)
            else:
                memory.used = used
                memory.signs += DECISION_BYTES
                if used > memory.high_water:
                    memory.high_water = used
        decisions.append(node)
        return node

    def close(self) -> None:
        """Backtrack a lane that is alone on its engine."""
        self.engine.close()
        self.decisions.pop()
        memory = self._memory
        if memory is not None:
            memory.used -= DECISION_BYTES
            memory.signs -= DECISION_BYTES

    def push(self) -> DecisionNode:
        """Fold the collected matches into the decision of the node the
        shared engine just opened."""
        node = DecisionNode(self.decisions[-1], self.collected)
        self.decisions.append(node)
        return node

    def pop(self) -> None:
        """Drop the innermost node's decision."""
        self.decisions.pop()
