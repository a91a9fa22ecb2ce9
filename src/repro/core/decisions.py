"""Per-node authorization decisions and conflict resolution.

This module is the paper's *sign stack* generalized to three-valued
logic.  An open element that some rule matches gets a
:class:`DecisionNode` linked to its parent's; any other element takes
its parent's node, since the stack "keeps on the top the current sign
that is propagated if no other rule applies" (Section 2.3).  The nodes
ride the delivery records of the open elements
(:class:`~repro.core.delivery.Record`), the one stack that holds them.

Conflict resolution (Section 2.2):

* **Most-Specific-Object-Takes-Precedence** -- a rule matching a node
  directly beats any decision propagated from an ancestor.  Encoded by
  the parent fallback: the parent's decision is consulted only when no
  direct match (definite or still-pending) survives.
* **Denial-Takes-Precedence** -- among direct matches on the same node a
  negative rule wins.  Encoded by the evaluation order below: a possible
  denial keeps the node undecided even when a permission is certain.

The default policy (closed-world) is a virtual root decision of DENY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.conditions import Condition, Tristate, conjunction_state
from repro.core.rules import Sign

#: Modeled secure-RAM size of one decision node (the sign-stack entry).
DECISION_BYTES = 4


@dataclass(frozen=True, slots=True)
class Resolved:
    """A final decision."""

    sign: Sign


@dataclass(frozen=True, slots=True)
class Pending:
    """An undecided decision, blocked on the given conditions."""

    unknowns: frozenset[Condition]


Status = Resolved | Pending

#: The direct matches of one node on one lane: ``(sign, conditions)``.
Matches = list[tuple[Sign, frozenset[Condition]]]

#: Shared resolution singletons -- ``status()`` runs once or more per
#: element per evaluator, and the two resolved outcomes are value
#: objects (frozen, compared by field), so one instance each suffices.
_RESOLVED_DENY = Resolved(Sign.DENY)
_RESOLVED_PERMIT = Resolved(Sign.PERMIT)


class DecisionNode:
    """Authorization state of one element node.

    Direct matches are recorded at the node's ``open`` (all automata are
    checked there, so the match set is complete immediately); only the
    *conditions* guarding pending matches evolve afterwards.  The
    ``matches`` a node is built with, ``(sign, conditions)`` pairs, are
    folded in by :meth:`add_match`.
    """

    __slots__ = (
        "parent", "_definite_deny", "_definite_permit", "_pending",
        "_resolved",
    )

    def __init__(
        self,
        parent: "DecisionNode | None",
        matches: "Iterable[tuple[Sign, frozenset[Condition]]]" = (),
    ) -> None:
        self.parent = parent
        self._definite_deny = False
        self._definite_permit = False
        self._pending: list[tuple[frozenset[Condition], Sign]] = []
        #: The status once it is :class:`Resolved` (it never changes
        #: again), so a settled node answers without a walk.
        self._resolved: Resolved | None = None
        for sign, conditions in matches:
            self.add_match(sign, conditions)

    @classmethod
    def default_root(cls, sign: Sign) -> "DecisionNode":
        """The virtual decision above the document root (default policy)."""
        root = cls(None)
        if sign is Sign.DENY:
            root._definite_deny = True
        else:
            root._definite_permit = True
        return root

    def add_match(self, sign: Sign, conditions: frozenset[Condition]) -> None:
        """Record a direct rule match on this node.

        An unguarded match (no conditions, nearly every match) is
        definite without a conjunction walk.
        """
        if conditions:
            state = conjunction_state(conditions)
            if state is Tristate.FALSE:
                return
            if state is Tristate.UNKNOWN:
                self._pending.append((conditions, sign))
                return
        if sign is Sign.DENY:
            self._definite_deny = True
        else:
            self._definite_permit = True

    def status(self) -> Status:
        """Best-knowledge decision under the conflict-resolution policies.

        Monotone: once :class:`Resolved`, later calls return the same
        sign (memoized); a :class:`Pending` result lists exactly the
        conditions whose resolution can change the outcome (the
        delivery engine subscribes to them).
        """
        status = self._resolved
        if status is None:
            status = self._evaluate()
            if type(status) is Resolved:
                self._resolved = status
        return status

    def _evaluate(self) -> Status:
        if self._definite_deny:
            return _RESOLVED_DENY
        unknowns: set[Condition] = set()
        deny_open = False
        for conditions, sign in self._pending:
            if sign is not Sign.DENY:
                continue
            state = conjunction_state(conditions)
            if state is Tristate.TRUE:
                return _RESOLVED_DENY
            if state is Tristate.UNKNOWN:
                deny_open = True
                unknowns.update(
                    c for c in conditions if c.state is Tristate.UNKNOWN
                )
        if deny_open:
            return Pending(frozenset(unknowns))
        if self._definite_permit:
            return _RESOLVED_PERMIT
        permit_open = False
        for conditions, sign in self._pending:
            if sign is not Sign.PERMIT:
                continue
            state = conjunction_state(conditions)
            if state is Tristate.TRUE:
                return _RESOLVED_PERMIT
            if state is Tristate.UNKNOWN:
                permit_open = True
                unknowns.update(
                    c for c in conditions if c.state is Tristate.UNKNOWN
                )
        if permit_open:
            return Pending(frozenset(unknowns))
        # No direct match survives: propagate from the ancestor chain
        # (Most-Specific-Object-Takes-Precedence fallback).
        assert self.parent is not None, "virtual root must be definite"
        return self.parent.status()
