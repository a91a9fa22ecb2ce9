"""High-level composition: rule evaluation + query + delivery.

:class:`AccessController` is the pure, in-memory form of the engine the
card applet runs -- the applet adds crypto, the skip index and resource
accounting around this same object.  It steps a policy lane and, with a
query, a query lane (:mod:`repro.core.evaluator`), each on its own
engine, and hands their matches to one delivery engine, whose records
of the open elements carry the decisions (:mod:`repro.core.delivery`).
:func:`authorized_view` is the one-call convenience API used by
examples and tests.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.compiled import (
    CompiledPolicy,
    PolicyRegistry,
    compile_policy,
    compile_query,
)
from repro.core.decisions import DECISION_BYTES
from repro.core.delivery import DeliveryEngine, ViewMode
from repro.core.evaluator import add_lane
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

    Each of the two lanes (:func:`~repro.core.evaluator.add_lane`) --
    the authorization lane and, with a query, the query lane -- runs
    alone on its own :class:`~repro.core.product.ProductEngine`, so it
    adopts its policy's solved tables.

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
        self._policy = ProductEngine(memory=memory, stats=self.stats)
        self._policy_matches = add_lane(self._policy, policy)
        #: The lanes :meth:`feed` steps, policy first: (engine, matches).
        self._lanes = ((self._policy, self._policy_matches),)
        self._query = self._query_matches = query_default = None
        if query is not None:
            if not isinstance(query, CompiledPolicy):
                query = registry.get_query(query) if registry is not None else compile_query(query)
            self._query = ProductEngine(memory=memory, stats=self.stats)
            self._query_matches = add_lane(self._query, query)
            self._lanes += ((self._query, self._query_matches),)
            query_default = query.default
        self.compiled_query = query
        self._delivery = DeliveryEngine(policy.default, query_default, mode, memory)
        #: The open elements' delivery records, innermost last: the
        #: innermost delivery kind is ``records[-1].kind``, its decision
        #: nodes ``records[-1].auth`` and ``.query``.
        self.records = self._delivery.records
        self._finished = False

    # -- streaming interface ------------------------------------------------

    def feed(self, event: Event) -> list[Event]:
        """Process one event; return the output events it released.

        Read the returned list before the next call: unless a drain
        was due it is the delivery's ``released`` list, emptied then, so
        an event allocates no list.  A drain is due only when a pending
        hole closed or a fate resolved (``DeliveryEngine.changed``).
        Dispatch is on the exact event type.  Each lane's engine is
        stepped here, policy lane first, and with a memory meter each
        open's decision is charged inline to the ``signs`` pool, once
        per lane.
        """
        if self._finished:
            raise RuntimeError("controller already finished")
        delivery = self._delivery
        released = delivery.released
        if released:
            released.clear()  # the previous event's release, read by now
        cls = type(event)
        if cls is OpenEvent:
            tag = event.tag
            memory = self._memory
            for engine, matches in self._lanes:
                if matches:
                    matches.clear()
                engine.open(tag)
                if memory is not None:
                    used = memory.used + DECISION_BYTES
                    if used > memory.limit:
                        memory.overflow("signs", DECISION_BYTES)
                    else:
                        memory.used = used
                        memory.signs += DECISION_BYTES
                        if used > memory.high_water:
                            memory.high_water = used
            delivery.open(event, self._policy_matches, self._query_matches)
        elif cls is ValueEvent:
            if not self.records:
                raise ValueError("text event outside the root element")
            text = event.text
            for engine, __ in self._lanes:
                engine.value(text)
            delivery.value(event)
        elif cls is CloseEvent:
            if not self.records:
                raise ValueError("unbalanced close event")
            delivery.close(event)
            memory = self._memory
            for engine, __ in self._lanes:
                engine.close()
                if memory is not None:
                    memory.used -= DECISION_BYTES
                    memory.signs -= DECISION_BYTES
        else:
            raise TypeError(f"not an event: {event!r}")
        if delivery.changed:
            return delivery.drain()
        return delivery.released

    def finish(self) -> list[Event]:
        """Signal end of document; return the final output events."""
        if self.records:
            raise ValueError("document ended with unclosed elements")
        self._finished = True
        delivery = self._delivery
        delivery.released.clear()  # the last event's release
        return delivery.finish()

    # -- skip-index interface (used by the card applet) -----------------------

    def subtree_is_irrelevant(self, tags_inside: frozenset[str]) -> bool:
        """Whether a subtree of the innermost node can be skipped
        *semantically*: no automaton (rule or query) can complete inside
        and no value predicate is collecting the node's text.

        The applet combines this with the delivery status (a subtree is
        only actually skipped when it is also not being delivered).
        """
        policy = self._policy
        if policy.can_complete_inside(tags_inside) or policy.has_watchers_on_top():
            return False
        query = self._query
        if query is None:
            return True
        return not (
            query.can_complete_inside(tags_inside) or query.has_watchers_on_top()
        )

    def current_decision_nodes(self):
        """The (auth, query) decision nodes of the innermost element
        (above the document root, the default decisions)."""
        record = self.records[-1] if self.records else self._delivery._document
        return record.auth, record.query

    def status_of(self, auth, query):
        """Combined status for externally held decision nodes (refetch)."""
        return self._delivery._combined_status(auth, query)

    @property
    def max_pending_bytes(self) -> int:
        return self._delivery.max_pending_bytes

    def active_token_count(self) -> int:
        count = self._policy.active_token_count()
        if self._query is not None:
            count += self._query.active_token_count()
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

