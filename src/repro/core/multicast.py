"""Shared-pass evaluation of one document against many subjects.

The push scenario (Section 4 of the paper) broadcasts one stream to a
whole community; every subscriber holds different rights but the
*document events are the same for everyone*.  Evaluating each
subscriber in isolation parses (and tokenizes, and advances automata
over) the identical stream N times.  This module amortizes that: one
:class:`~repro.core.product.ProductEngine` pumps every subscriber's
automata over a single pass of the event stream, while each subscriber
keeps a private lane (:func:`~repro.core.evaluator.add_lane`, its
match list) and delivery engine, whose records are its decision stack
(their views genuinely differ).

Shared automata are shared for real: when two subscribers carry the
same compiled policy (one registry entry -- e.g. two members of the
same subscription tier), their automata fold into one product slot,
so per-event cost tracks *distinct* automata rather than audience
size, and their predicate conditions are instantiated once with both
lanes' decisions hanging off the same condition objects.

This mirrors the amortization argument of dissemination systems such
as Sampaio et al. ("Secure and Privacy-Aware Data Dissemination for
Cloud-Based Applications"): policy evaluation cost must be shared
across recipients for broadcast to scale.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.compiled import CompiledPolicy, PolicyRegistry, compile_policy
from repro.core.delivery import DeliveryEngine, ViewMode
from repro.core.evaluator import add_lane
from repro.core.product import ProductEngine
from repro.core.rules import RuleSet, Sign, Subject
from repro.core.runtime import EngineStats
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent
from repro.xmlstream.writer import write_string


class MultiSubjectEvaluator:
    """Evaluates one event stream once against N compiled policies.

    ``feed`` returns one output-event list per lane (same order as the
    ``policies`` argument); ``finish`` returns the final lists.  The
    document is parsed once, the product machine is pumped once per event,
    and only the per-subject decision folding and delivery run N times.
    """

    def __init__(
        self,
        policies: Sequence[CompiledPolicy],
        mode: ViewMode = ViewMode.SKELETON,
        stats: EngineStats | None = None,
    ) -> None:
        if not policies:
            raise ValueError("at least one policy required")
        self.stats = stats or EngineStats()
        self._engine = ProductEngine(stats=self.stats)
        self._matches = [add_lane(self._engine, policy) for policy in policies]
        self._deliveries = [DeliveryEngine(policy.default, mode=mode) for policy in policies]
        self._depth = 0
        self._finished = False

    def feed(self, event: Event) -> list[list[Event]]:
        """Process one event; return the per-lane output it released."""
        self._pump(event)
        return [delivery.drain() for delivery in self._deliveries]

    def run(self, events: Iterable[Event]) -> list[list[Event]]:
        """Pump a whole event slice per call; return complete outputs.

        Equivalent to feeding every event and then :meth:`finish`, with
        the per-event drain of every lane's delivery buffer elided --
        output accumulates inside the delivery engines and is drained
        once at the end.  The emitted events are identical (drains only
        decide *when* ready output is collected, never what), but the
        per-event Python overhead drops from O(lanes) list building to
        the one shared engine dispatch.
        """
        pump = self._pump
        for event in events:
            pump(event)
        return self.finish()

    def _pump(self, event: Event) -> None:
        if self._finished:
            raise RuntimeError("evaluator already finished")
        if isinstance(event, OpenEvent):
            for matches in self._matches:
                matches.clear()
            self._engine.open(event.tag)
            for matches, delivery in zip(self._matches, self._deliveries):
                delivery.open(event, matches)
            self._depth += 1
        elif isinstance(event, ValueEvent):
            if self._depth == 0:
                raise ValueError("text event outside the root element")
            self._engine.value(event.text)
            for delivery in self._deliveries:
                delivery.value(event)
        elif isinstance(event, CloseEvent):
            if self._depth == 0:
                raise ValueError("unbalanced close event")
            for delivery in self._deliveries:
                delivery.close(event)
            self._engine.close()
            self._depth -= 1
        else:  # pragma: no cover - defensive
            raise TypeError(f"not an event: {event!r}")

    def finish(self) -> list[list[Event]]:
        """Signal end of document; return the final per-lane output."""
        if self._depth != 0:
            raise ValueError("document ended with unclosed elements")
        self._finished = True
        return [delivery.finish() for delivery in self._deliveries]

    def active_token_count(self) -> int:
        return self._engine.active_token_count()


def multicast_views(
    events: Iterable[Event],
    rules: RuleSet,
    subjects: Sequence[Subject | str],
    default: Sign = Sign.DENY,
    mode: ViewMode = ViewMode.SKELETON,
    registry: PolicyRegistry | None = None,
    stats: EngineStats | None = None,
) -> dict[str, list[Event]]:
    """Authorized views of every subject, computed in one parse pass.

    Returns ``{subject name: output events}`` (empty for an empty
    audience).  Subject names must be unique -- results are keyed by
    name, and silently collapsing two subjects could hand one of them
    the other's (possibly more permissive) view.  With a ``registry``,
    subjects sharing a sub-policy also share compiled automata (and
    their runtime tokens and conditions inside the shared engine).
    """
    if not subjects:
        return {}
    policies: list[CompiledPolicy] = []
    names: list[str] = []
    for subject in subjects:
        name = subject.name if isinstance(subject, Subject) else subject
        if name in names:
            raise ValueError(f"duplicate subject name {name!r}")
        names.append(name)
        if registry is not None:
            policies.append(registry.get(rules, subject, default))
        else:
            policies.append(compile_policy(rules, subject, default))
    evaluator = MultiSubjectEvaluator(policies, mode=mode, stats=stats)
    return dict(zip(names, evaluator.run(events)))


def multicast_view_texts(
    events: Iterable[Event],
    rules: RuleSet,
    subjects: Sequence[Subject | str],
    default: Sign = Sign.DENY,
    mode: ViewMode = ViewMode.SKELETON,
    registry: PolicyRegistry | None = None,
) -> dict[str, str]:
    """Like :func:`multicast_views`, rendered to XML text per subject.

    The shared rendering used by every multicast consumer (the
    dissemination preflight, the trusted-filter baselines): one parse
    pass, ``{subject name: serialized authorized view}``.
    """
    views = multicast_views(
        events, rules, subjects, default=default, mode=mode, registry=registry
    )
    return {name: write_string(view) for name, view in views.items()}
