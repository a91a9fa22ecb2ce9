"""The evaluation engine: one table-driven product machine over every
rule automaton, predicates included.

From Section 2.3:

    "Basically, when an open or a value event is received, all the
    automata are checked and go to their next state.  Upon receiving a
    close event, all the automata backtrack.  To manage these automata
    efficiently, we use a stack that keeps track of active states,
    materializing all the possible paths that can be followed on the
    non-deterministic automata."

The machine composes the whole automata *set* into one product
automaton, NFA->DFA on the fly:

* a **product state** is the interned set of live ``(slot, step)``
  positions (:class:`_StateEntry`).  A slot is one compiled path: a
  rule or query spine (seeded at the root) or a predicate sub-automaton
  (seeded at ``(slot, 0)`` in the frame of the node whose step carries
  the predicate).  Identical sets share one entry;
* a **transition** is resolved once per ``(state, tag)`` pair and
  memoized on the entry (:class:`_Transition`);
* a **frame** (one per open element; popping it on ``close`` *is* the
  backtracking) holds the state plus a count vector of *plain* tokens
  -- unguarded tokens of a rule slot, one per registered sink --
  and, when predicates are in play, its per-token payloads
  (:data:`_Frame`): the guarded tokens (each a conjunction of pending
  :class:`~repro.core.conditions.Condition` objects plus the sinks it
  reports to; a predicate token reports to the condition it supports),
  the conditions anchored at the node, and the value watchers that
  collect the node's direct text for ``[x = "v"]``/``[. = "v"]`` tests
  and fire at its ``close``.

One step advances a frame, in two parts.  What depends only on
``(transition, counts)`` -- every stay of the plain tokens and the
advance of every plain token whose step creates no condition or
watcher -- is computed once and cached on the transition
(:meth:`ProductEngine._memoize`): every frame of a predicate-free
policy is one dict hit per event.  The node's own work completes it
(:meth:`ProductEngine._step`): the guarded tokens the tag advances and
the plain tokens whose step creates a condition or a watcher; guarded
tokens that merely ride the descendant axis are carried along as they
are, and the ones the tag neither advances nor keeps just die.
Conditions never enter a cache key, so per-node conditions cannot leak
into the memo.

The engine reproduces, token for token, the classic token-stack
evaluation: advances are deduped per ``(target, sink, live guard set)``
(a token whose guards all turned TRUE advances unguarded), stays keep
their guards, there is one condition per ``(predicate path, node)``,
each advancing token gets its own condition per ``[. = "v"]`` test, and
the skip test ignores tokens whose guards already failed (the paper's
"suspended rules").  Positions are processed deepest predicate slot
first, so every predicate completion of an event lands before the
tokens it guards advance.  Every
:class:`~repro.core.runtime.EngineStats` counter and secure-RAM charge
is therefore exactly that evaluation's, and the modeled
:class:`~repro.smartcard.resources.SimClock` with it.

Sharing: slots are keyed by compiled-path identity, so lanes carrying
the same ``CompiledPolicy`` share one slot per automaton with a
per-sink fan-out -- a broadcast under one effective policy advances
*one* product machine per event, and its predicate conditions are
instantiated once for every lane.  The solved tables
(:class:`ProductTables`: states, transitions, memos) hold no sink and
no condition.  An engine running one compiled policy alone -- each
session of a card under its cached policy, and under its cached query
-- adopts the tables the policy owns, so they are solved once per
policy and die with it; any other registration solves tables of its
own.  Tables stop growing at
:data:`TABLE_LIMIT` entries: past it, steps are computed uncached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.conditions import (
    EMPTY_CONDITIONS,
    Condition,
    Tristate,
    live_conditions,
)
from repro.core.nfa import CompiledPath, CompiledStep
from repro.core.runtime import (
    CONDITION_BYTES,
    FRAME_BYTES,
    TOKEN_BYTES,
    WATCHER_BYTES,
    EngineStats,
    MatchSink,
)
from repro.xpathlib.ast import Comparison

if TYPE_CHECKING:
    from repro.core.compiled import CompiledPolicy


class _ConditionSink:
    """Routes predicate-path completions into a condition's supports."""

    __slots__ = ("condition",)

    def __init__(self, condition: Condition) -> None:
        self.condition = condition

    def on_match(self, conditions: frozenset[Condition]) -> None:
        self.condition.add_support(conditions)


class _Watcher:
    """Collects the direct text of one node, fires a test at its close."""

    __slots__ = ("comparison", "deliver", "conditions", "parts")

    def __init__(
        self,
        comparison: Comparison,
        deliver: Callable[[frozenset[Condition]], None],
        conditions: frozenset[Condition],
    ) -> None:
        self.comparison = comparison
        self.deliver = deliver
        self.conditions = conditions
        self.parts: list[str] = []

    def fire(self) -> None:
        if self.comparison.test("".join(self.parts)):
            self.deliver(self.conditions)


#: A guarded token group: one token per sink, all under the same guards.
_Tokens = tuple[frozenset[Condition], tuple[MatchSink, ...]]


def _carry(
    tokens: "dict[int, list[_Tokens]]",
    staying: "dict[int, tuple[int, int]]",
    new_tokens: "dict[int, list[_Tokens]]",
) -> int:
    """Let the guarded tokens riding the descendant axis stay, as they
    are; returns how many tokens stay.

    Stays run after every advance of a step, so a target no advance
    landed on can share the parent frame's list: frames never mutate a
    list once built.
    """
    carried = 0
    for i, groups in tokens.items():
        route = staying.get(i)
        if route is None:
            continue
        for __, group in groups:
            carried += len(group)
        landed = new_tokens.get(route[0])
        if landed is None:
            new_tokens[route[0]] = groups
        else:
            landed.extend(groups)
    return carried


#: The predicate payload of one frame: guarded token groups by position
#: index (or None), the conditions anchored at the node and the value
#: watchers collecting its text.
_Payload = tuple[
    "dict[int, list[_Tokens]] | None",
    "Sequence[Condition]",
    "Sequence[_Watcher]",
]

#: One open element: (state, plain counts, token total, payload or None).
_Frame = tuple["_StateEntry", tuple[int, ...], int, "_Payload | None"]

#: Per step of a slot: (match_name, descendant, step, next position or
#: None on the final step, seed position per predicate, whether a match
#: creates a condition or a watcher).
_StepRow = tuple[
    "str | None",
    bool,
    CompiledStep,
    "tuple[int, int] | None",
    "tuple[tuple[int, int], ...]",
    bool,
]


class _Slot:
    """One automaton of the product: a compiled path.

    ``depth`` is the predicate nesting depth (0 for a rule spine).  The
    sinks a slot's matches fan out to belong to each engine; the
    machine only knows how many there are.
    """

    __slots__ = ("index", "path", "depth", "steps")

    def __init__(self, index: int, path: CompiledPath, depth: int) -> None:
        self.index = index
        self.path = path
        self.depth = depth
        self.steps: tuple[_StepRow, ...] = ()


class _StateEntry:
    """One interned product state: a canonical set of live positions."""

    __slots__ = (
        "positions",  # tuple[(slot_index, step_index), ...], processing order
        "suffixes",  # per-position suffix label sets (skip-index test)
        "transitions",  # tag -> _Transition, built lazily
        "reach_memo",  # tags_inside -> bool, for can_complete_inside
    )

    def __init__(
        self,
        positions: tuple[tuple[int, int], ...],
        suffixes: tuple[frozenset[str], ...],
    ) -> None:
        self.positions = positions
        self.suffixes = suffixes
        self.transitions: dict[str, _Transition] = {}
        self.reach_memo: dict[frozenset[str], bool] = {}


#: Advance target of a position sitting on its path's final step.
_FINAL = -1

#: (position index, advance target index or _FINAL, seed target index
#: per predicate of the step, slot, step, whether a match creates a
#: condition or a watcher) -- target indices address the next state's
#: positions.
_Advance = tuple[int, int, tuple[int, ...], _Slot, CompiledStep, bool]


class _Transition:
    """The solved structure of one tag on one product state."""

    __slots__ = ("next_entry", "advancing", "staying", "accepting", "plain", "memo")

    def __init__(
        self,
        next_entry: _StateEntry,
        advancing: tuple[_Advance, ...],
        staying: dict[int, tuple[int, int]],
        plain: bool,
    ) -> None:
        self.next_entry = next_entry
        #: The positions whose step accepts the tag, in processing
        #: order (see :data:`_Advance`).
        self.advancing = advancing
        #: position index -> (stay target index, sink fan-out) for every
        #: position riding the descendant axis.
        self.staying = staying
        #: The positions whose step accepts the tag: a guarded token
        #: anywhere else stays (if it rides the descendant axis) or dies.
        self.accepting = frozenset(a[0] for a in advancing)
        #: Whether no matching step creates a condition or a watcher.
        self.plain = plain
        #: counts -> (next frame, advances, slot index per fired plain
        #: token unit): the part of the step that depends on the plain
        #: counts alone -- every stay, and the advance of every plain
        #: token whose step creates no condition or watcher.  For a
        #: plain transition and a frame without guarded tokens it is
        #: the whole step.
        self.memo: dict[
            tuple[int, ...], tuple[_Frame, int, tuple[int, ...]]
        ] = {}


#: Entries (interned states, transitions, memoized steps, skip answers)
#: one :class:`ProductTables` stores at most; past the limit, steps are
#: computed uncached.  The E20 workloads peak at 39 entries per table.
TABLE_LIMIT = 1024


class ProductTables:
    """The solved tables of one registration sequence.

    Built from the compiled paths registered with an engine, in order
    (a path registered again folds into its slot with one more sink).
    Holds the slots, the interned states and their transitions and
    memos -- nothing that belongs to one engine, so a compiled policy
    owns the tables of its automata and every session evaluating it
    alone reuses them.  Tables are only ever added to, each entry fully
    built before it is published, so engines on several threads can
    share them.  ``entries`` counts what was stored (racing sessions
    may each store one more), and nothing more is stored once it
    reaches :data:`TABLE_LIMIT`.
    """

    __slots__ = ("slots", "slot_of", "fanout", "nested", "intern", "entries")

    def __init__(self, paths: Sequence[CompiledPath]) -> None:
        self.slots: list[_Slot] = []
        self.slot_of: dict[int, int] = {}  # id(path) -> slot index
        self.nested = False  # whether any predicate slot exists
        self.intern: dict[frozenset[tuple[int, int]], _StateEntry] = {}
        self.entries = 0
        for path in paths:
            self._slot(path, 0)
        fanout = [0] * len(self.slots)
        for path in paths:
            fanout[self.slot_of[id(path)]] += 1
        #: Registered sinks per slot: a plain token at one of its
        #: positions stands for one token per sink.
        self.fanout = tuple(fanout)

    def admit(self) -> bool:
        """Whether one more entry may be stored (and count it if so)."""
        if self.entries >= TABLE_LIMIT:
            return False
        self.entries += 1
        return True

    def _slot(self, path: CompiledPath, depth: int) -> int:
        """The slot index of ``path``, registering it and its predicate
        sub-automata on first sight."""
        index = self.slot_of.get(id(path))
        if index is not None:
            return index
        index = self.slot_of[id(path)] = len(self.slots)
        slot = _Slot(index, path, depth)
        self.slots.append(slot)
        self.nested = self.nested or depth > 0
        last = len(path.steps) - 1
        slot.steps = tuple(
            (
                step.match_name,
                step.descendant,
                step,
                None if j == last else (index, j + 1),
                tuple(
                    (self._slot(predicate, depth + 1), 0)
                    for predicate in step.predicates
                ),
                bool(
                    step.predicates
                    or step.dot_comparisons
                    or (j == last and path.comparison is not None)
                ),
            )
            for j, step in enumerate(path.steps)
        )
        return index

    def state(
        self, key: frozenset[tuple[int, int]], stats: EngineStats
    ) -> _StateEntry:
        """The interned entry of a position set."""
        entry = self.intern.get(key)
        if entry is None:
            slots = self.slots
            positions = sorted(key)
            if self.nested:
                # Deepest predicate slots first: a predicate token's
                # completion must resolve its condition before the
                # tokens guarded by that condition advance in the same
                # event.  (The sort is stable.)
                positions.sort(key=lambda p: -slots[p[0]].depth)
            entry = _StateEntry(
                tuple(positions),
                tuple(slots[s].path.suffix_labels[j] for s, j in positions),
            )
            if self.admit():
                self.intern[key] = entry
                stats.product_states_interned += 1
        return entry

    def root(self, stats: EngineStats) -> _StateEntry:
        """The state before the root opens: every rule slot at step 0."""
        return self.state(
            frozenset((s, 0) for s, n in enumerate(self.fanout) if n), stats
        )

    def transition(
        self, entry: _StateEntry, tag: str, stats: EngineStats
    ) -> _Transition:
        """Solve the structure of ``tag`` on ``entry``, once.

        A position *stays* when its step rides the descendant axis (the
        self-loop of Figure 2), *advances* to the next step when its
        step accepts the tag (wildcard or exact), and *fires* instead
        when it sits on the final step.  A matching step with
        predicates seeds each predicate slot at step 0.
        """
        slots = self.slots
        stats.tokens_touched += len(entry.positions)
        targets: set[tuple[int, int]] = set()
        # Targets are (slot, step) pairs until the next state is known.
        advancing = []
        staying = []
        plain = True
        for i, (s, j) in enumerate(entry.positions):
            slot = slots[s]
            name, descendant, step, advance, seeds, impure = slot.steps[j]
            if name is None or name == tag:
                if impure:
                    plain = False
                if seeds:
                    targets.update(seeds)
                if advance is not None:
                    targets.add(advance)
                advancing.append((i, advance, seeds, slot, step, impure))
            if descendant:
                targets.add((s, j))
                staying.append((i, (s, j), self.fanout[s]))
        next_entry = self.state(frozenset(targets), stats)
        index = dict(zip(next_entry.positions, range(len(targets))))
        transition = _Transition(
            next_entry,
            tuple([
                (
                    i,
                    _FINAL if advance is None else index[advance],
                    tuple([index[seed] for seed in seeds]) if seeds else (),
                    slot,
                    step,
                    impure,
                )
                for i, advance, seeds, slot, step, impure in advancing
            ]),
            {i: (index[stay], weight) for i, stay, weight in staying},
            plain,
        )
        if self.admit():
            entry.transitions[tag] = transition
        return transition


class ProductEngine:
    """The shared machine running every automaton at once.

    ``memory`` is an optional secure-RAM meter (see
    :mod:`repro.smartcard.memory`); when provided, every frame, token,
    condition, watcher and collected text byte is charged to its
    ``engine`` pool.
    """

    def __init__(self, memory=None, stats: EngineStats | None = None) -> None:
        self._memory = memory
        self.stats = stats or EngineStats()
        self._registered: list[tuple[CompiledPath, MatchSink]] = []
        #: The solved tables: a lone policy's own (see :meth:`add_policy`)
        #: or, from the root open on, private ones.
        self._tables: ProductTables | None = None
        #: Set when the root opens: this engine's sinks per slot.
        self._sinks: list[tuple[MatchSink, ...]] = []
        #: The frame stack, from the root frame on.
        self._frames: list[_Frame] | None = None
        self._charge(FRAME_BYTES)

    # -- memory hooks ---------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        """Charge set-up and watched text; :meth:`open` and :meth:`close`
        keep the ``engine`` pool inline."""
        if self._memory is not None:
            self._memory.allocate("engine", nbytes)

    # -- setup ----------------------------------------------------------

    def add_automaton(self, path: CompiledPath, sink: MatchSink) -> None:
        """Seed a root token for an absolute path before parsing starts."""
        if self._frames is not None:
            raise RuntimeError("automata must be added before the root opens")
        self._registered.append((path, sink))
        self._tables = None
        self._charge(TOKEN_BYTES)

    def add_policy(self, policy: CompiledPolicy, sinks: list[MatchSink]) -> None:
        """Seed every automaton of a prebuilt compiled policy.

        ``sinks`` supplies one match sink per automaton.  An engine
        running this one policy alone adopts the tables the policy
        owns, solved by the sessions before it.
        """
        if len(policy.automata) != len(sinks):
            raise ValueError("one sink per automaton required")
        alone = not self._registered
        for path, sink in zip(policy.automata, sinks):
            self.add_automaton(path, sink)
        if alone:
            self._tables = policy.tables

    def _seal(self) -> list[_Frame]:
        """Fix the tables and the sinks per slot; build the root frame."""
        tables = self._tables
        if tables is None:
            tables = self._tables = ProductTables(
                [path for path, __ in self._registered]
            )
        sinks: list[list[MatchSink]] = [[] for __ in tables.slots]
        for path, sink in self._registered:
            sinks[tables.slot_of[id(path)]].append(sink)
        self._sinks = [tuple(group) for group in sinks]
        entry = tables.root(self.stats)
        counts = (1,) * len(entry.positions)
        self._frames = [(entry, counts, len(self._registered), None)]
        return self._frames

    # -- the one advance algorithm ---------------------------------------

    def _memoize(
        self,
        transition: _Transition,
        counts: tuple[int, ...],
    ) -> tuple[_Frame, int, tuple[int, ...]]:
        """The part of a step that depends on ``(transition, counts)``
        only, cached on the transition while the tables have room.

        The ``count`` plain tokens of a position advance as one unit of
        that multiplicity: they carry identical (empty) guards, so all
        but one dedupe away.  Positions whose step creates a condition
        or a watcher are left to :meth:`_step`, which needs the node.
        """
        sinks_of = self._sinks
        new_counts = [0] * len(transition.next_entry.positions)
        fired: list[int] = []
        advances = total = 0
        for i, target, __, slot, ___, impure in transition.advancing:
            count = counts[i]
            if impure or not count:
                continue
            fanout = len(sinks_of[slot.index])
            advances += fanout * count
            if target == _FINAL:
                fired.extend([slot.index] * count)
            else:
                new_counts[target] += 1
                total += fanout
        for i, (stay, weight) in transition.staying.items():
            count = counts[i]
            if count:
                new_counts[stay] += count
                total += count * weight
        self.stats.tokens_touched += len(counts)
        memo = (
            (transition.next_entry, tuple(new_counts), total, None),
            advances,
            tuple(fired),
        )
        if self._tables.admit():  # type: ignore[union-attr]
            transition.memo[counts] = memo
        return memo

    def _step(
        self,
        transition: _Transition,
        base: _Frame,
        counts: tuple[int, ...],
        tokens: dict[int, list[_Tokens]] | None,
    ) -> tuple[_Frame, int]:
        """Complete the memoized ``base`` of a step with the node's own
        work: the guarded tokens of the frame and every plain token
        whose step creates a condition or a watcher.

        Returns the next frame and the number of advancing tokens it
        adds; completed matches are reported to their sinks as they
        happen, and conditions are created (and counted) here.
        Positions run in processing order, so a predicate completion
        lands before the tokens it guards advance.
        """
        sinks_of = self._sinks
        depth = len(self._frames)  # type: ignore[arg-type]
        __, base_counts, total, ___ = base
        # The base counts, copied into a list on the first write.
        new_counts: tuple[int, ...] | list[int] = base_counts
        new_tokens: dict[int, list[_Tokens]] = {}
        conditions: list[Condition] = []
        watchers: list[_Watcher] = []
        here: dict[int, Condition] | None = None  # id(predicate path) -> condition
        advances = touched = 0
        for i, target, seeds, slot, step, impure in transition.advancing:
            groups = tokens.get(i) if tokens else None
            if not (impure or groups):
                continue  # all in the memoized base
            touched += 1
            count = counts[i]
            sinks = sinks_of[slot.index]
            shared = EMPTY_CONDITIONS
            if seeds:
                if here is None:
                    here = {}
                fresh = []
                for predicate, seed in zip(step.predicates, seeds):
                    condition = here.get(id(predicate))
                    if condition is None:
                        condition = here[id(predicate)] = Condition(depth)
                        conditions.append(condition)
                        new_tokens.setdefault(seed, []).append(
                            (EMPTY_CONDITIONS, (_ConditionSink(condition),))
                        )
                        total += 1
                    fresh.append(condition)
                shared = frozenset(fresh)
            units: list[tuple[frozenset[Condition], tuple[MatchSink, ...], int]]
            units = [(EMPTY_CONDITIONS, sinks, count)] if count and impure else []
            if groups:
                touched += len(groups)
                units += [(guards, group, 1) for guards, group in groups]
            tests = step.dot_comparisons
            landed: list[
                tuple[frozenset[Condition], tuple[MatchSink, ...], int]
            ] = []
            for guards, group, copies in units:
                advances += len(group) * copies
                if guards:
                    for condition in guards:
                        if condition.state is Tristate.TRUE:
                            guards = live_conditions(guards)
                            break
                    live = guards | shared if shared else guards
                else:
                    live = shared
                if not tests:
                    landed.append((live, group, copies))
                    continue
                # Each advancing token gets its own condition per
                # [. op v] test on the node it just matched.
                for __ in range(copies):
                    for sink in group:
                        own = set(live)
                        for test in tests:
                            condition = Condition(depth)
                            conditions.append(condition)
                            watchers.append(
                                _Watcher(
                                    test, condition.add_support, EMPTY_CONDITIONS
                                )
                            )
                            own.add(condition)
                        landed.append((frozenset(own), (sink,), 1))
            if target == _FINAL:
                comparison = slot.path.comparison
                for guard_set, group, copies in landed:
                    for __ in range(copies):
                        if comparison is None:
                            for sink in group:
                                sink.on_match(guard_set)
                        else:
                            watchers.extend(
                                _Watcher(comparison, sink.on_match, guard_set)
                                for sink in group
                            )
                continue
            # Every advance into ``target`` comes from this position, so
            # the dedupe per (sink, guard set) is local; the extra copies
            # of a unit are always duplicates.  A memoized plain unit
            # landed first, unguarded.
            seen: dict[frozenset[Condition], set[MatchSink]] = (
                {EMPTY_CONDITIONS: set(sinks)} if count and not impure else {}
            )
            for guard_set, group, __ in landed:
                prior = seen.get(guard_set)
                if prior is None:
                    seen[guard_set] = set(group)
                else:
                    group = tuple(x for x in group if x not in prior)
                    if not group:
                        continue
                    prior.update(group)
                total += len(group)
                if not guard_set and group == sinks:
                    if type(new_counts) is tuple:
                        new_counts = list(new_counts)
                    new_counts[target] += 1
                else:
                    new_tokens.setdefault(target, []).append((guard_set, group))
        if tokens:
            total += _carry(tokens, transition.staying, new_tokens)
        stats = self.stats
        stats.tokens_touched += touched
        stats.conditions_created += len(conditions)
        payload = (
            (new_tokens or None, conditions, watchers)
            if new_tokens or conditions or watchers
            else None
        )
        if type(new_counts) is list:
            new_counts = tuple(new_counts)
        return (transition.next_entry, new_counts, total, payload), advances

    # -- event processing ------------------------------------------------

    def open(self, tag: str) -> None:
        """Advance every automaton on an opening tag.

        The part of the step that depends on ``(transition, counts)``
        is one memo hit; a frame whose guarded tokens survive the tag,
        or a transition that creates conditions, completes it with
        :meth:`_step`.
        """
        frames = self._frames or self._seal()
        entry, counts, total, payload = frames[-1]
        stats = self.stats
        stats.events += 1
        stats.token_checks += total
        transition = entry.transitions.get(tag)
        if transition is None:
            transition = self._tables.transition(  # type: ignore[union-attr]
                entry, tag, stats
            )
        memo = transition.memo.get(counts)
        if memo is None:
            memo = self._memoize(transition, counts)
        frame, advances, fired = memo
        if fired:
            sinks_of = self._sinks
            for slot in fired:
                for sink in sinks_of[slot]:
                    sink.on_match(EMPTY_CONDITIONS)
        tokens = payload[0] if payload is not None else None
        if not transition.plain or (
            tokens and not transition.accepting.isdisjoint(tokens)
        ):
            frame, more = self._step(transition, frame, counts, tokens)
            advances += more
            charge = FRAME_BYTES + TOKEN_BYTES * frame[2]
            if frame[3] is not None:
                __, conditions, watchers = frame[3]
                charge += CONDITION_BYTES * len(conditions)
                charge += WATCHER_BYTES * len(watchers)
        else:
            if tokens:
                # No guarded token advances: the riding ones just stay.
                carried: dict[int, list[_Tokens]] = {}
                riding = _carry(tokens, transition.staying, carried)
                if carried:
                    frame = (frame[0], frame[1], frame[2] + riding, (carried, (), ()))
            charge = FRAME_BYTES + TOKEN_BYTES * frame[2]
        stats.token_advances += advances
        frames.append(frame)
        # One combined allocation: nothing is released mid-event, so the
        # running total (and the high-water mark) equals that of
        # charging frame, conditions, watchers and tokens one by one.
        memory = self._memory
        if memory is not None:
            used = memory.used + charge
            if used > memory.limit:
                memory.overflow("engine", charge)
            else:
                memory.used = used
                memory.engine += charge
                if used > memory.high_water:
                    memory.high_water = used

    def value(self, text: str) -> None:
        """Feed a text event to the watchers of the innermost node."""
        stats = self.stats
        stats.events += 1
        payload = self._frames[-1][3] if self._frames else None
        if payload is not None and payload[2]:
            watchers = payload[2]
            stats.watcher_bytes += len(text) * len(watchers)
            self._charge(len(text) * len(watchers))
            for watcher in watchers:
                watcher.parts.append(text)

    def close(self) -> None:
        """Backtrack: fire watchers, fail open conditions, pop the frame."""
        stats = self.stats
        stats.events += 1
        frames = self._frames
        if frames is None or len(frames) <= 1:
            raise RuntimeError("close event without a matching open")
        __, __, total, payload = frames.pop()
        freed = FRAME_BYTES + TOKEN_BYTES * total
        if payload is not None:
            __, conditions, watchers = payload
            for watcher in watchers:
                watcher.fire()
                freed += WATCHER_BYTES + sum(map(len, watcher.parts))
            for condition in conditions:
                condition.finalize()
            freed += CONDITION_BYTES * len(conditions)
        memory = self._memory
        if memory is not None:
            memory.used -= freed
            memory.engine -= freed

    # -- skip-index queries ----------------------------------------------

    def can_complete_inside(self, tags_inside: frozenset[str]) -> bool:
        """Whether any active automaton could reach a final state within
        a subtree containing exactly ``tags_inside`` element tags.

        This is the reachability test of Section 2.3: "to check whether
        an access rule automaton is likely to reach its final state".
        Wildcard steps contribute no label and never rule a subtree
        out.  A guarded token whose guards already failed can never
        contribute (the paper's "suspended rules"); an unguarded frame
        depends only on its state, so the answer is cached there.
        """
        entry, counts, __, payload = (self._frames or self._seal())[-1]
        tokens = payload[0] if payload is not None else None
        if tokens is None:
            memo = entry.reach_memo
            result = memo.get(tags_inside)
            if result is None:
                result = any(needed <= tags_inside for needed in entry.suffixes)
                if self._tables.admit():  # type: ignore[union-attr]
                    memo[tags_inside] = result
            return result
        for i, needed in enumerate(entry.suffixes):
            if needed <= tags_inside and (
                counts[i]
                or any(
                    all(c.state is not Tristate.FALSE for c in guards)
                    for guards, __ in tokens.get(i, ())
                )
            ):
                return True
        return False

    def has_watchers_on_top(self) -> bool:
        """Whether the innermost node's text is being collected.

        A subtree whose root carries a value watcher must not be
        skipped: the skip would discard the text under test.
        """
        payload = self._frames[-1][3] if self._frames else None
        return payload is not None and bool(payload[2])

    def active_token_count(self) -> int:
        """Number of live tokens (used by RAM benchmarks)."""
        if self._frames is None:
            return len(self._registered)
        return sum(frame[2] for frame in self._frames)
