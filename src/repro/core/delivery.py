"""Construction of the authorized output stream.

The delivery engine turns per-element decisions into the *authorized
view* of the document, coping with decisions that are still pending.

View semantics (mirrored exactly by ``reference.py``, the test oracle):

* an element whose decision is PERMIT (and which is query-selected) is
  delivered in full: tag, attributes and its direct text;
* an element whose decision is DENY is not delivered, **but** if some
  descendant is delivered the element appears as a *skeleton* -- bare
  tag, no attributes, no text -- so that authorized parts keep their
  position in the hierarchy (``ViewMode.SKELETON``, the default).
  ``ViewMode.PRUNE`` instead re-parents delivered descendants under the
  nearest delivered ancestor;
* a pending element buffers its output in a *hole* until its conditions
  resolve -- this is the paper's "pending" delivery, and the buffered
  bytes are exactly what experiment E10 measures.

Implementation note: denied elements and pending elements share one
mechanism.  Both become :class:`_Hole` buffers in their parent's output;
a denied element's hole is born already resolved to DENY ("emit a
skeleton iff any real content ends up inside"), a pending element's hole
resolves when its conditions do.  Holes are created lazily -- a denied
element with no delivered descendant never allocates one.

The records of the open elements are the one decision stack: each
:class:`Record` carries its element's decision node on the policy lane
and on the query lane.  Only an element that a rule matches gets a new
node on that lane; an element with no match on either lane takes its
parent's nodes (the sign "propagated if no other rule applies"), and
with them its parent's delivery kind without folding a status.

The pending path costs only what changes.  A hole's sign lives in a
:class:`_Fate`, the one object that watches the conditions its decision
hangs on; only an element with direct rule matches of its own gets a
new fate, and under a pending parent the hole of an element with none
joins the parent's.  A hole can be settled once it is closed, its fate
resolved and every hole around it settled; only then is it put on
:attr:`DeliveryEngine.changed`, and only then does the controller ask
for a drain.  Settling a hole touches that hole, the nested holes it
can settle and the containers waiting above it: each hole counts its
plain items and its undecided nested holes, so a DENY hole knows from
two integers whether its skeleton's emptiness is decided yet, and a
finished contribution is spliced into its container in place.  On E20
``feed`` (seed 1, 40 ops after 10) this took ``drain`` from 115.0 to
4.6 calls per op and the ``core/delivery`` calls from 958 to 560, and
the video/kid pull's pump from 18.21 to 14.99 Python calls per decoded
item.  Released events, ``max_pending_bytes`` and every charge to the
meter's ``pending`` pool happen at the same events as under the
whole-buffer settle this replaced; ``tests/core/delivery_reference.py``
keeps that engine as the differential oracle.

Output order is document order: a hole blocks the emission of
everything behind it until it resolves (all holes resolve by the close
of the document root at the latest).
"""

from __future__ import annotations

import enum
from typing import Union

from repro.core.conditions import Condition
from repro.core.decisions import DecisionNode, Matches, Resolved
from repro.core.rules import Sign
from repro.xmlstream.events import (
    CloseEvent,
    Event,
    OpenEvent,
    ValueEvent,
    event_size,
)


class ViewMode(enum.Enum):
    """How denied ancestors of delivered content are rendered."""

    SKELETON = "skeleton"
    PRUNE = "prune"


#: Shared empty condition set for resolved statuses.
_NO_CONDITIONS: frozenset[Condition] = frozenset()


class _Fate:
    """The resolution that one or more pending holes share.

    ``sign`` stays None while the decision is open.  A fate subscribes
    once to each condition the decision of ``auth`` (and ``query``)
    hangs on and refolds the decision when one resolves; every hole
    that joined it resolves with it.  ``hole`` is the outermost of
    them, the hole of the element that built the fate: the others sit
    inside it, so only it can be reachable when the fate resolves.
    """

    __slots__ = ("sign", "hole", "_delivery", "_auth", "_query", "_watched")

    def __init__(
        self,
        delivery: "DeliveryEngine | None",
        auth: DecisionNode | None,
        query: DecisionNode | None,
        unknowns: frozenset[Condition],
    ) -> None:
        self.sign: Sign | None = None
        self.hole: _Hole | None = None
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
        hole = self.hole
        self.hole = None  # no reference cycle outlives the resolution
        if hole.closed:
            holder = hole.holder()
            if holder is None or holder.waiting:
                delivery.changed.append(hole)


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

    A hole is *settleable* once it is closed and its fate resolved, and
    *reachable* once every hole around it has been settled: its
    container is the root buffer or a hole ``waiting`` on its nested
    holes.  A reachable settleable hole is settled at the next drain:
    its contribution to the container is decided -- always for PERMIT,
    and for DENY once it holds plain content or no undecided nested
    hole, which ``plain`` and ``nested`` count -- and stored in
    ``out``; an undecidable DENY hole waits instead.

    ``container`` is the hole the element was buffered in (None for
    the root buffer).  A settled hole's undecided nested holes move up
    into its container, so the hole that counts one of them is the
    first unsettled hole up that chain.
    """

    __slots__ = (
        "open_event", "items", "closed", "fate", "_delivery", "charged",
        "container", "plain", "nested", "waiting", "out",
    )

    def __init__(
        self, open_event: OpenEvent, delivery: "DeliveryEngine", fate: _Fate
    ) -> None:
        self.open_event = open_event
        self.items: list[Item] = []
        self.closed = False
        self.fate = fate
        self._delivery = delivery
        self.charged = 0
        self.container: _Hole | None = None
        #: Plain items (not own text, not holes), then also non-empty
        #: contributions of settled nested holes: only zero matters.
        self.plain = 0
        #: Undecided holes this hole contains, moved-up ones included.
        self.nested = 0
        self.waiting = False
        #: The finished contribution: plain events and undecided holes.
        self.out: list[Item] | None = None

    def append(self, item: "Item") -> None:
        self.items.append(item)
        kind = type(item)
        if kind is _Hole:
            item.container = self
            self.nested += 1
            return  # nested holes charge their own items
        if kind is not _SelfText:
            self.plain += 1
        delivery = self._delivery
        memory = delivery._memory
        if memory is not None:
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

    def holder(self) -> "_Hole | None":
        """The unsettled hole that counts this one (None: the root)."""
        container = self.container
        while container is not None and container.out is not None:
            container = container.container
        return container


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
        #: What a step released when no drain is due: the root buffer
        #: while no hole is buffered (the caller reads it before the next
        #: step, which empties it), else a list that stays empty.
        self.released: list[Event] = self._root_items
        self._blocked: list[Event] = []
        #: Reachable holes that became settleable (closed with a
        #: resolved fate) since the last drain: only these can change
        #: the output, so a step with none needs no drain.
        self.changed: list[_Hole] = []

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
                hole = fate.hole = _Hole(event, self, fate)
            else:
                hole = _Hole(event, self, fate)
            self.released = self._blocked
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
        kind = record.kind
        if kind == Record.DELIVER:
            record.sink.append(event)
            return
        if kind == Record.DROP:
            sink = record.sink
            hole = sink.shell
            if hole is None:
                if sink.materialized and not self._prune:
                    sink.append(CloseEvent(event.tag))
                return
        else:
            hole = record.sink
        hole.closed = True
        # The holes around a closing element's are its open ancestors',
        # none of them settled: it is reachable only from the root.
        if hole.fate.sign is not None and hole.container is None:
            self.changed.append(hole)

    # -- output ---------------------------------------------------------------

    def _settle(self, hole: _Hole) -> None:
        """Settle a reachable settleable hole.

        A DENY hole with no plain content but undecided nested holes
        first settles the nested ones that can be; if it still has no
        plain content it waits.  Otherwise its contribution is built,
        its RAM released and the hole that counts it told, which then
        settles too if it was waiting only for this.
        """
        permit = hole.fate.sign is Sign.PERMIT
        if not permit and not hole.plain and hole.nested:
            for item in hole.items:
                if (
                    type(item) is _Hole
                    and item.out is None
                    and not item.waiting
                    and item.closed
                    and item.fate.sign is not None
                ):
                    self._settle(item)
            if not hole.plain and hole.nested:
                hole.waiting = True
                return
        hole.waiting = False
        tag = hole.open_event.tag
        out: list[Item] = [hole.open_event] if permit else []
        for item in hole.items:
            kind = type(item)
            if kind is _Hole:
                if item.out is None:
                    if not item.waiting and item.closed and item.fate.sign is not None:
                        self._settle(item)
                    if item.out is None:
                        out.append(item)
                        continue
                out += item.out
                item.out.clear()  # drop its moved-up holes' back-references
            elif kind is _SelfText:
                if permit:
                    out.append(item.event)
            else:
                out.append(item)
        if permit:
            out.append(CloseEvent(tag))
        elif out and not self._prune:
            out.insert(0, OpenEvent(tag))
            out.append(CloseEvent(tag))
        hole.out = out
        hole.items.clear()
        charged = hole.charged
        if charged:
            memory = self._memory
            memory.used -= charged
            memory.pending -= charged
            hole.charged = 0
        holder = hole.container  # hole.holder(), inlined: once per hole
        while holder is not None and holder.out is not None:
            holder = holder.container
        if holder is not None:
            holder.nested += hole.nested - 1
            if out:
                holder.plain += 1
            if holder.waiting and (holder.plain or not holder.nested):
                self._settle(holder)

    def drain(self) -> list[Event]:
        """Emit every event no longer order-blocked by a pending hole."""
        root_items = self._root_items
        if self.released is root_items:
            # No hole is buffered: nothing is order-blocked and nothing
            # is charged to "pending".
            emitted = list(root_items)
            root_items.clear()
            return emitted
        changed = self.changed
        if changed:
            for hole in changed:
                if hole.out is None and not hole.waiting:
                    self._settle(hole)
            changed.clear()
        # Splice finished holes into the root buffer up to the first
        # undecided one; everything before it is released.
        count = 0
        size = len(root_items)
        while count < size:
            item = root_items[count]
            if type(item) is _Hole:
                out = item.out
                if out is None:
                    break
                root_items[count:count + 1] = out
                size = len(root_items)
                out.clear()
            else:
                count += 1
        if count == size:
            self.released = root_items  # no hole is left anywhere
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
