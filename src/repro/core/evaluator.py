"""The streaming access-rights evaluator.

Binds together the evaluation engine (:mod:`repro.core.product`) and
the decision chain (:mod:`repro.core.decisions`): on every ``open`` all
automata advance and the direct matches reported for the new node are
folded into a fresh :class:`DecisionNode`; ``close`` backtracks the
automata, finalizes the predicate conditions anchored at the node and
pops the decision.

The same class evaluates the user *query* (pull scenarios): a query is
compiled exactly like a single positive rule under a closed-world
default, so "the authorized subpart matching the query" (Section 2) is
the conjunction of two evaluator instances, taken by the delivery
engine.
"""

from __future__ import annotations

from repro.core.compiled import CompiledPolicy, compile_policy
from repro.core.conditions import Condition
from repro.core.decisions import DECISION_BYTES, DecisionNode
from repro.core.nfa import CompiledPath, compile_path
from repro.core.product import ProductEngine
from repro.core.rules import RuleSet, Sign, Subject
from repro.core.runtime import EngineStats
from repro.xpathlib.ast import Path


class _RuleSink:
    """Routes completed rule matches to the node being opened."""

    __slots__ = ("evaluator", "sign")

    def __init__(self, evaluator: "StreamingEvaluator", sign: Sign) -> None:
        self.evaluator = evaluator
        self.sign = sign

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.evaluator._report(self.sign, conditions)


class StreamingEvaluator:
    """Evaluates a set of signed paths over an event stream.

    For access control, construct with :meth:`for_policy`; for query
    selection, with :meth:`for_query`.  Every path set, predicates or
    not, runs on one :class:`~repro.core.product.ProductEngine`.
    """

    def __init__(
        self,
        default: Sign,
        memory=None,
        stats: EngineStats | None = None,
    ) -> None:
        self._stats = stats or EngineStats()
        self._engine = ProductEngine(memory=memory, stats=self._stats)
        self._memory = memory
        root = DecisionNode.default_root(default)
        self._decisions: list[DecisionNode] = [root]
        self._collected: list[tuple[Sign, frozenset[Condition]]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_compiled(
        cls,
        policy: CompiledPolicy,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build an evaluator around prebuilt automata.

        This is the hot construction path: it seeds one token per
        automaton and allocates nothing else -- no parsing, no NFA
        compilation.  The same :class:`CompiledPolicy` may back any
        number of concurrent evaluators, which share its solved
        product tables.
        """
        evaluator = cls(policy.default, memory=memory, stats=stats)
        evaluator._engine.add_policy(
            policy, [_RuleSink(evaluator, sign) for sign in policy.signs]
        )
        return evaluator

    @classmethod
    def for_policy(
        cls,
        rules: RuleSet,
        subject: Subject | str | None = None,
        default: Sign = Sign.DENY,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build the access-control evaluator for one subject.

        Thin wrapper over :meth:`from_compiled` that compiles the
        policy on the spot.  Callers that evaluate the same policy many
        times should compile once (or use a
        :class:`~repro.core.compiled.PolicyRegistry`) and call
        :meth:`from_compiled` instead.

        ``subject=None`` means the rule set is already subject-specific
        (that is how the card receives it: the DSP stores per-subject
        encrypted rule sets).
        """
        return cls.from_compiled(
            compile_policy(rules, subject, default), memory=memory, stats=stats
        )

    @classmethod
    def for_query(
        cls,
        query: Path | CompiledPath,
        memory=None,
        stats: EngineStats | None = None,
    ) -> "StreamingEvaluator":
        """Build a selector: nodes in the query's subtrees are PERMIT."""
        evaluator = cls(Sign.DENY, memory=memory, stats=stats)
        if isinstance(query, CompiledPath):
            evaluator.add_compiled_path(query, Sign.PERMIT)
        else:
            evaluator.add_rule_path(query, Sign.PERMIT)
        return evaluator

    def add_rule_path(self, path: Path, sign: Sign) -> None:
        """Compile and register one signed path (before parsing starts)."""
        self.add_compiled_path(compile_path(path), sign)

    def add_compiled_path(self, path: CompiledPath, sign: Sign) -> None:
        """Register one prebuilt signed automaton (before parsing starts)."""
        self._engine.add_automaton(path, _RuleSink(self, sign))

    # -- events -------------------------------------------------------------

    def _report(self, sign: Sign, conditions: frozenset[Condition]) -> None:
        self._collected.append((sign, conditions))

    def open(self, tag: str) -> DecisionNode:
        """Advance automata on an open; return the new node's decision."""
        self._collected.clear()
        self._engine.open(tag)
        node = DecisionNode(parent=self._decisions[-1])
        if self._memory is not None:
            self._memory.allocate("signs", DECISION_BYTES)
        for sign, conditions in self._collected:
            node.add_match(sign, conditions)
        self._decisions.append(node)
        return node

    def value(self, text: str) -> None:
        self._engine.value(text)

    def close(self) -> None:
        self._engine.close()
        self._decisions.pop()
        if self._memory is not None:
            self._memory.release("signs", DECISION_BYTES)

    # -- skip-index interface -------------------------------------------------

    def can_complete_inside(self, tags_inside: frozenset[str]) -> bool:
        """Whether any automaton could reach a final state in a subtree
        containing exactly the given element tags."""
        return self._engine.can_complete_inside(tags_inside)

    def has_watchers_on_top(self) -> bool:
        """Whether the current node's text feeds a value predicate."""
        return self._engine.has_watchers_on_top()

    def current_decision(self) -> DecisionNode:
        """Decision of the innermost open element (or the default)."""
        return self._decisions[-1]

    def active_token_count(self) -> int:
        return self._engine.active_token_count()

    @property
    def stats(self) -> EngineStats:
        return self._stats
