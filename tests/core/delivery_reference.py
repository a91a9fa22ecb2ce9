"""A frozen copy of the hole-based delivery engine, kept as a test oracle.

This is ``repro.core.delivery`` as it stood before the pending path
settled only what changed: every drain after a hole closed or a fate
resolved re-settles the whole root buffer, and ``AccessController.feed``
drains after every event while a hole is buffered.  Its released events
and its charges to the meter's ``pending`` pool are the behaviour the
live engine must keep, event by event; ``FrozenController`` drives it
exactly as ``AccessController.feed``/``finish`` did.  Do not optimise or
edit this module: it is only ever compared against.
"""

from __future__ import annotations

from typing import Union

from repro.core.conditions import Condition
from repro.core.decisions import DECISION_BYTES, DecisionNode, Matches, Resolved
from repro.core.delivery import ViewMode  # the live enum: modes compare by identity
from repro.core.rules import Sign
from repro.xmlstream.events import (
    CloseEvent,
    Event,
    OpenEvent,
    ValueEvent,
    event_size,
)


#: Shared empty condition set for resolved statuses.
_NO_CONDITIONS: frozenset[Condition] = frozenset()


class _Fate:
    """The resolution that one or more pending holes share.

    ``sign`` stays None while the decision is open.  A fate subscribes
    once to each condition the decision of ``auth`` (and ``query``)
    hangs on and refolds the decision when one resolves; every hole
    that joined it resolves with it.
    """

    __slots__ = ("sign", "_delivery", "_auth", "_query", "_watched")

    def __init__(
        self,
        delivery: "DeliveryEngine | None",
        auth: DecisionNode | None,
        query: DecisionNode | None,
        unknowns: frozenset[Condition],
    ) -> None:
        self.sign: Sign | None = None
        self._delivery = delivery
        self._auth = auth
        self._query = query
        self._watched = set(unknowns)
        for condition in unknowns:
            condition.add_listener(self.refresh)

    def refresh(self, _: Condition) -> None:
        if self.sign is not None:
            return
        delivery = self._delivery
        kind, unknowns = delivery._combined_status(self._auth, self._query)
        if kind == Record.PENDING:
            watched = self._watched
            for condition in unknowns:
                if condition not in watched:
                    watched.add(condition)
                    condition.add_listener(self.refresh)
            return
        self.sign = Sign.PERMIT if kind == Record.DELIVER else Sign.DENY
        delivery._dirty = True


#: The fate of a denied element's shell: resolved from birth.
_DENIED = _Fate(None, None, None, _NO_CONDITIONS)
_DENIED.sign = Sign.DENY


class _SelfText:
    """Text of a pending element; kept only if it resolves to PERMIT."""

    __slots__ = ("event",)

    def __init__(self, event: ValueEvent) -> None:
        self.event = event


class _Hole:
    """Buffered, possibly undecided output of one element.

    Contributes to its parent buffer once (a) the element has closed,
    (b) its fate resolved, and (c) for a DENY resolution, emptiness is
    decidable.
    """

    __slots__ = ("open_event", "items", "closed", "fate", "_delivery", "charged")

    def __init__(
        self, open_event: OpenEvent, delivery: "DeliveryEngine", fate: _Fate
    ) -> None:
        self.open_event = open_event
        self.items: list[Item] = []
        self.closed = False
        self.fate = fate
        self._delivery = delivery
        self.charged = 0

    def append(self, item: "Item") -> None:
        self.items.append(item)
        delivery = self._delivery
        memory = delivery._memory
        if memory is not None:
            kind = type(item)
            if kind is _Hole:
                return  # nested holes charge their own items
            nbytes = (
                len(item.event.text) if kind is _SelfText else event_size(item)
            )
            used = memory.used + nbytes
            if used > memory.limit:
                memory.overflow("pending", nbytes)
            else:
                memory.used = used
                memory.pending += nbytes
                if used > memory.high_water:
                    memory.high_water = used
            self.charged += nbytes
            if memory.pending > delivery.max_pending_bytes:
                delivery.max_pending_bytes = memory.pending

    def discharge(self) -> None:
        """Release the modeled RAM held by this hole's buffered items."""
        charged = self.charged
        if charged:
            memory = self._delivery._memory
            memory.used -= charged
            memory.pending -= charged
            self.charged = 0


Item = Union[Event, _SelfText, _Hole]


class _Sink:
    """Destination for one denied element's delivery items.

    The sink stays silent until content flows through it; then:

    * plain content materializes the bare skeleton tag eagerly and the
      sink becomes a pass-through -- delivered descendants of denied
      ancestors stream with **zero** buffering;
    * a pending hole arriving first forces a buffered *shell* (a hole
      pre-resolved to DENY), because whether the skeleton appears at
      all depends on whether the pending content materializes.

    In PRUNE mode the sink is a pass-through from the start.
    """

    __slots__ = ("_parent", "_shell_open", "_delivery", "shell", "materialized")

    def __init__(
        self,
        parent: "list[Item] | _Sink | _Hole",
        shell_open: OpenEvent,
        delivery: "DeliveryEngine",
        prune: bool,
    ) -> None:
        self._parent = parent
        self._shell_open = shell_open
        self._delivery = delivery
        self.shell: _Hole | None = None
        self.materialized = prune

    def resolved(self) -> "list[Item] | _Sink | _Hole":
        """Where this sink's items end up: once it is materialized with
        no shell it passes every item straight on, so the destination
        is the first sink up its chain that is not such a pass-through
        (itself if it is not one)."""
        sink: list[Item] | _Sink | _Hole = self
        while type(sink) is _Sink and sink.materialized and sink.shell is None:
            sink = sink._parent
        return sink

    def append(self, item: Item) -> None:
        if not self.materialized and self.shell is None:
            if type(item) is _Hole:
                self.shell = _Hole(self._shell_open, self._delivery, _DENIED)
                self._parent.append(self.shell)
            else:
                self.materialized = True
                self._parent.append(OpenEvent(self._shell_open.tag))
        if self.shell is not None:
            self.shell.append(item)
        else:
            self._parent.append(item)


class Record:
    """Per-open-element delivery state.

    ``kind``, one of the three constants below, is how the element is
    delivered, decided at its open.  ``sink`` receives the element's
    content: the parent's sink (the root buffer at the top) for a
    delivered element, a :class:`_Sink` for a denied one and the
    element's own :class:`_Hole` for a pending one.  ``auth`` and
    ``query`` are the element's decision nodes on the policy and query
    lanes (``query`` is None without a query).
    """

    DELIVER = "deliver"
    DROP = "drop"
    PENDING = "pending"

    __slots__ = ("kind", "sink", "auth", "query")

    def __init__(
        self, kind: str, sink, auth: DecisionNode, query: DecisionNode | None
    ) -> None:
        self.kind = kind
        self.sink = sink
        self.auth = auth
        self.query = query


class DeliveryEngine:
    """Streams the authorized view, buffering only undecided regions.

    ``default`` is the policy's default sign and ``query_default`` the
    query's (None without a query): the decisions above the document
    root.
    """

    def __init__(
        self,
        default: Sign,
        query_default: Sign | None = None,
        mode: ViewMode = ViewMode.SKELETON,
        memory=None,
    ) -> None:
        self.mode = mode
        self._memory = memory
        self._prune = mode is ViewMode.PRUNE
        self._root_items: list[Item] = []
        #: The records of the open elements, innermost last; each holds
        #: its element's decision nodes, so this is the decision stack.
        self.records: list[Record] = []
        auth = DecisionNode.default_root(default)
        query = None if query_default is None else DecisionNode.default_root(query_default)
        #: The virtual record above the document root: the parent of
        #: the root element's record.
        self._document = Record(
            self._combined_status(auth, query)[0], self._root_items, auth, query
        )
        #: Peak of the meter's "pending" pool at the drains (what E10
        #: reports).  Holes sample it right after each charge: the pool
        #: only grows by those charges and only shrinks while a drain
        #: settles, so each drain reads the last sample before it.
        self.max_pending_bytes = 0
        #: Set when a pending hole is created, cleared when a drain
        #: empties the root buffer: every hole sits in that buffer or
        #: inside a hole there.  While it is clear the root buffer
        #: holds plain events only (shell holes are only ever triggered
        #: by a pending hole flowing through), so :meth:`drain` can skip
        #: the hole scan.
        self._holes_buffered = False
        #: Set when a hole closed or a fate resolved: only then can a
        #: hole have become finalizable, so only then does
        #: :meth:`drain` settle the buffers.
        self._dirty = False

    # -- decision combination ---------------------------------------------

    def _combined_status(
        self, auth: DecisionNode, query: DecisionNode | None
    ) -> tuple[str, frozenset[Condition]]:
        """Fold authorization and query selection into a delivery kind.

        A definite DENY on either side drops the element regardless of
        the other side; both must be definitively PERMIT to deliver.
        The two sides are folded directly (no list materialization).
        """
        auth_status = auth.status()
        query_status = query.status() if query is not None else None
        if type(auth_status) is Resolved:
            if auth_status.sign is Sign.DENY:
                return Record.DROP, _NO_CONDITIONS
            auth_unknowns = None
        else:
            auth_unknowns = auth_status.unknowns
        if query_status is None:
            if auth_unknowns:
                return Record.PENDING, auth_unknowns
            return Record.DELIVER, _NO_CONDITIONS
        if type(query_status) is Resolved:
            if query_status.sign is Sign.DENY:
                return Record.DROP, _NO_CONDITIONS
            query_unknowns = None
        else:
            query_unknowns = query_status.unknowns
        if not auth_unknowns and not query_unknowns:
            return Record.DELIVER, _NO_CONDITIONS
        unknowns: set[Condition] = set()
        if auth_unknowns:
            unknowns.update(auth_unknowns)
        if query_unknowns:
            unknowns.update(query_unknowns)
        return Record.PENDING, frozenset(unknowns)

    # -- events -------------------------------------------------------------

    def open(
        self,
        event: OpenEvent,
        auth_matches: Matches,
        query_matches: Matches | None = None,
    ) -> None:
        """Process an element open with the matches each lane collected.

        An element with matches gets a new decision node on that lane;
        any other takes its parent's.
        """
        records = self.records
        parent = records[-1] if records else self._document
        parent_sink = parent.sink
        auth = parent.auth
        query = parent.query
        if auth_matches:
            auth = DecisionNode(auth, auth_matches)
        if query_matches:
            query = DecisionNode(query, query_matches)
        fate = None
        if auth is parent.auth and query is parent.query:
            # No direct match on either lane: the parent's status is
            # this element's, so is its delivery kind (or fate).
            kind = parent.kind
            if kind == Record.PENDING:
                fate = parent.sink.fate
                if fate.sign is not None:
                    kind = Record.DELIVER if fate.sign is Sign.PERMIT else Record.DROP
            elif kind == Record.DELIVER:
                parent_sink.append(event)
                records.append(parent)  # a delivered child shares it
                return
        else:
            kind, unknowns = self._combined_status(auth, query)
        # A denied parent's sink that already passes its items on is
        # resolved to its destination here, once, so that descendants
        # append there directly.
        if kind == Record.DELIVER:
            parent_sink.append(event)
            if type(parent_sink) is _Sink:
                parent_sink = parent_sink.resolved()
            record = Record(kind, parent_sink, auth, query)
        elif kind == Record.DROP:
            if type(parent_sink) is _Sink:
                parent_sink = parent_sink.resolved()
            record = Record(kind, _Sink(parent_sink, event, self, self._prune), auth, query)
        else:
            if fate is None:
                fate = _Fate(self, auth, query, unknowns)
            hole = _Hole(event, self, fate)
            self._holes_buffered = True
            parent_sink.append(hole)
            record = Record(kind, hole, auth, query)
        records.append(record)

    def value(self, event: ValueEvent) -> None:
        """Process a text event (owned by the innermost open element)."""
        record = self.records[-1]
        if record.kind == Record.DELIVER:
            record.sink.append(event)
        elif record.kind == Record.PENDING:
            record.sink.append(_SelfText(event))
        # DROP: text is never delivered.

    def close(self, event: CloseEvent) -> None:
        """Process an element close."""
        record = self.records.pop()
        if record.kind == Record.DELIVER:
            record.sink.append(event)
        elif record.kind == Record.DROP:
            sink = record.sink
            if sink.shell is not None:
                sink.shell.closed = True
                self._dirty = True
            elif sink.materialized and not self._prune:
                sink.append(CloseEvent(event.tag))
        else:
            record.sink.closed = True
            self._dirty = True

    # -- output ---------------------------------------------------------------

    def _hole_contribution(self, hole: _Hole) -> list[Item] | None:
        """Finalized contribution of a hole, or None if not decidable yet."""
        sign = hole.fate.sign
        if not hole.closed or sign is None:
            return None
        self._settle(hole.items)
        if sign is Sign.PERMIT:
            out: list[Item] = [hole.open_event]
            for item in hole.items:
                out.append(item.event if type(item) is _SelfText else item)
            out.append(CloseEvent(hole.open_event.tag))
            hole.discharge()
            return out
        # DENY: keep only content contributed by delivered descendants.
        content: list[Item] = [
            item for item in hole.items if type(item) is not _SelfText
        ]
        has_nested_hole = any(type(item) is _Hole for item in content)
        has_plain = any(type(item) is not _Hole for item in content)
        if has_nested_hole and not has_plain:
            return None  # emptiness unknown until nested holes resolve
        hole.discharge()
        if not content:
            return []
        if self._prune:
            return content
        skeleton: list[Item] = [OpenEvent(hole.open_event.tag)]
        skeleton.extend(content)
        skeleton.append(CloseEvent(hole.open_event.tag))
        return skeleton

    def _settle(self, items: list[Item]) -> None:
        """Replace finalizable holes with their contributions, in place.

        One pass suffices: a contribution's own holes were tried (and
        found undecidable) while it was built.
        """
        settled: list[Item] = []
        changed = False
        for item in items:
            if type(item) is _Hole:
                contribution = self._hole_contribution(item)
                if contribution is not None:
                    settled.extend(contribution)
                    changed = True
                    continue
            settled.append(item)
        if changed:
            items[:] = settled

    def drain(self) -> list[Event]:
        """Emit every event no longer order-blocked by a pending hole."""
        root_items = self._root_items
        if not self._holes_buffered:
            # Hot path: no hole is buffered, so nothing is order-blocked
            # and nothing is charged to "pending".
            emitted = list(root_items)
            root_items.clear()
            return emitted
        if self._dirty:
            self._dirty = False
            self._settle(root_items)
        count = 0
        for item in root_items:
            if type(item) is _Hole:
                break
            count += 1
        if count == len(root_items):
            self._holes_buffered = False  # this drain empties the buffer
        if not count:
            return []
        emitted = root_items[:count]
        del root_items[:count]
        return emitted

    def finish(self) -> list[Event]:
        """Drain after end of document; every hole must have resolved."""
        remaining = self.drain()
        if self._root_items:
            raise RuntimeError("unresolved pending output at end of document")
        return remaining


class FrozenController:
    """``AccessController`` as it drove the frozen delivery engine.

    Built from compiled policies (compile a fresh one per controller,
    so neither side inherits the other's solved tables); ``feed`` and
    ``finish`` are the frozen drivers, lane stepping and ``signs``
    charges included.
    """

    def __init__(self, policy, query=None, mode=ViewMode.SKELETON, memory=None) -> None:
        from repro.core.evaluator import add_lane
        from repro.core.product import ProductEngine
        from repro.core.runtime import EngineStats

        self.stats = EngineStats()
        self._memory = memory
        self._policy = ProductEngine(memory=memory, stats=self.stats)
        self._policy_matches = add_lane(self._policy, policy)
        self._lanes = ((self._policy, self._policy_matches),)
        self._query_matches = query_default = None
        if query is not None:
            engine = ProductEngine(memory=memory, stats=self.stats)
            self._query_matches = add_lane(engine, query)
            self._lanes += ((engine, self._query_matches),)
            query_default = query.default
        self._delivery = DeliveryEngine(policy.default, query_default, mode, memory)
        self.records = self._delivery.records
        self._finished = False

    @property
    def max_pending_bytes(self) -> int:
        return self._delivery.max_pending_bytes

    def feed(self, event: Event) -> list[Event]:
        if self._finished:
            raise RuntimeError("controller already finished")
        delivery = self._delivery
        released = delivery._root_items
        if released and not delivery._holes_buffered:
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
        if delivery._holes_buffered:
            return delivery.drain()
        return released

    def finish(self) -> list[Event]:
        if self.records:
            raise ValueError("document ended with unclosed elements")
        self._finished = True
        delivery = self._delivery
        if not delivery._holes_buffered:
            delivery._root_items.clear()  # the last event's release
        return delivery.finish()
