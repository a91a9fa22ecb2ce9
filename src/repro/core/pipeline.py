"""High-level composition: rule evaluation + query + delivery.

:class:`AccessController` is the pure, in-memory form of the engine the
card applet runs -- the applet adds crypto, the skip index and resource
accounting around this same object.  :func:`authorized_view` is the
one-call convenience API used by examples and tests.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.compiled import (
    CompiledPolicy,
    PolicyRegistry,
    compile_policy,
    compile_query,
)
from repro.core.decisions import DECISION_BYTES, DecisionNode
from repro.core.delivery import DeliveryEngine, ViewMode
from repro.core.evaluator import Lane
from repro.core.product import ProductEngine
from repro.core.rules import RuleSet, Sign, Subject
from repro.core.runtime import EngineStats
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent
from repro.xpathlib.ast import Path


class AccessController:
    """Streaming access-control pipeline for one (document, subject) pair.

    Feed it the document's events; collect authorized output as it
    becomes available::

        controller = AccessController(rules, subject="alice")
        for event in events:
            output.extend(controller.feed(event))
        output.extend(controller.finish())

    ``rules`` may be a plain :class:`RuleSet` (compiled on the spot, or
    through ``registry`` when one is given) or a prebuilt
    :class:`~repro.core.compiled.CompiledPolicy`, in which case
    construction performs zero compilation -- the hot path for serving
    many documents or subscribers under one policy.  Likewise ``query``
    accepts the prebuilt query policy of
    :func:`~repro.core.compiled.compile_query` or
    :meth:`~repro.core.compiled.PolicyRegistry.get_query`.

    Each of the two :class:`~repro.core.evaluator.Lane` objects -- the
    authorization lane and, with a query, the query lane -- runs alone
    on its own :class:`~repro.core.product.ProductEngine`, so it adopts
    its policy's solved tables.

    A :class:`CompiledPolicy` carries its subject and default sign;
    passing a conflicting ``subject`` or ``default`` alongside one is
    an error (the policy would silently win otherwise).
    """

    def __init__(
        self,
        rules: RuleSet | CompiledPolicy,
        subject: Subject | str | None = None,
        query: Path | str | CompiledPolicy | None = None,
        mode: ViewMode = ViewMode.SKELETON,
        default: Sign | None = None,
        memory=None,
        stats: EngineStats | None = None,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.stats = stats or EngineStats()
        if isinstance(rules, CompiledPolicy):
            policy = rules  # subject and default are baked in
            if subject is not None:
                raise ValueError(
                    "subject is baked into a CompiledPolicy; "
                    "compile the policy for the right subject instead"
                )
            if default is not None and default is not policy.default:
                raise ValueError(
                    f"default {default} conflicts with the compiled "
                    f"policy's default {policy.default}"
                )
        elif registry is not None:
            policy = registry.get(rules, subject, default if default is not None else Sign.DENY)
        else:
            policy = compile_policy(rules, subject, default if default is not None else Sign.DENY)
        self.compiled_policy = policy
        self._memory = memory
        self._policy = Lane(ProductEngine(memory=memory, stats=self.stats), policy)
        if query is not None and not isinstance(query, CompiledPolicy):
            query = registry.get_query(query) if registry is not None else compile_query(query)
        self.compiled_query = query
        self._query = None if query is None else Lane(
            ProductEngine(memory=memory, stats=self.stats), query
        )
        #: The lanes :meth:`feed` steps, policy first.
        self._lanes = (self._policy,) if self._query is None else (self._policy, self._query)
        self._delivery = DeliveryEngine(mode, memory=memory)
        #: The open elements' delivery records, innermost last: the
        #: innermost delivery kind is ``records[-1].kind``.
        self.records = self._delivery.records
        self._finished = False

    # -- streaming interface ------------------------------------------------

    def feed(self, event: Event) -> list[Event]:
        """Process one event; return the output events it released.

        Read the returned list before the next call: until a pending
        hole appears it is the delivery's root buffer itself, emptied
        then, so a delivering event allocates no list.  Dispatch is on
        the exact event type.  Each lane's engine and decision stack
        are stepped here, policy lane first, and with a memory meter
        each open decision is charged inline to its ``signs`` pool.
        """
        if self._finished:
            raise RuntimeError("controller already finished")
        delivery = self._delivery
        released = delivery._root_items
        if released and not delivery._hole_born:
            released.clear()  # the previous event's release, read by now
        cls = type(event)
        if cls is OpenEvent:
            tag = event.tag
            memory = self._memory
            for lane in self._lanes:
                collected = lane.collected
                if collected:
                    collected.clear()
                lane.engine.open(tag)
                decisions = lane.decisions
                node = DecisionNode(decisions[-1], collected)
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
            if self._query is None:
                delivery.open(event, node, None)
            else:
                delivery.open(event, self._policy.decisions[-1], node)
        elif cls is ValueEvent:
            if not self.records:
                raise ValueError("text event outside the root element")
            text = event.text
            for lane in self._lanes:
                lane.engine.value(text)
            delivery.value(event)
        elif cls is CloseEvent:
            if not self.records:
                raise ValueError("unbalanced close event")
            delivery.close(event)
            memory = self._memory
            for lane in self._lanes:
                lane.engine.close()
                lane.decisions.pop()
                if memory is not None:
                    memory.used -= DECISION_BYTES
                    memory.signs -= DECISION_BYTES
        else:
            raise TypeError(f"not an event: {event!r}")
        if delivery._hole_born:
            return delivery.drain()
        return released

    def finish(self) -> list[Event]:
        """Signal end of document; return the final output events."""
        if self.records:
            raise ValueError("document ended with unclosed elements")
        self._finished = True
        delivery = self._delivery
        if not delivery._hole_born:
            delivery._root_items.clear()  # the last event's release
        return delivery.finish()

    # -- skip-index interface (used by the card applet) -----------------------

    def subtree_is_irrelevant(self, tags_inside: frozenset[str]) -> bool:
        """Whether a subtree of the innermost node can be skipped
        *semantically*: no automaton (rule or query) can complete inside
        and no value predicate is collecting the node's text.

        The applet combines this with the delivery status (a subtree is
        only actually skipped when it is also not being delivered).
        """
        policy = self._policy.engine
        if policy.can_complete_inside(tags_inside) or policy.has_watchers_on_top():
            return False
        if self._query is None:
            return True
        query = self._query.engine
        return not (
            query.can_complete_inside(tags_inside) or query.has_watchers_on_top()
        )

    def current_status(self):
        """Combined delivery status of the innermost open element.

        Returns ``(kind, unknowns)`` where kind is one of the
        :class:`~repro.core.delivery.Record` constants (``"deliver"``, ``"drop"``, ``"pending"``).
        """
        return self._delivery._combined_status(*self.current_decision_nodes())

    def current_decision_nodes(self):
        """The (auth, query) decision nodes of the innermost element."""
        auth = self._policy.decisions[-1]
        query = self._query.decisions[-1] if self._query else None
        return auth, query

    def status_of(self, auth, query):
        """Combined status for externally held decision nodes (refetch)."""
        return self._delivery._combined_status(auth, query)

    @property
    def max_pending_bytes(self) -> int:
        return self._delivery.max_pending_bytes

    def active_token_count(self) -> int:
        count = self._policy.engine.active_token_count()
        if self._query is not None:
            count += self._query.engine.active_token_count()
        return count


def authorized_view(
    events: Iterable[Event],
    rules: RuleSet | CompiledPolicy,
    subject: Subject | str | None = None,
    query: Path | str | None = None,
    mode: ViewMode = ViewMode.SKELETON,
    default: Sign | None = None,
    registry: PolicyRegistry | None = None,
) -> list[Event]:
    """Compute the authorized view of a document in one call."""
    controller = AccessController(
        rules,
        subject=subject,
        query=query,
        mode=mode,
        default=default,
        registry=registry,
    )
    output: list[Event] = []
    for event in events:
        output.extend(controller.feed(event))
    output.extend(controller.finish())
    return output

