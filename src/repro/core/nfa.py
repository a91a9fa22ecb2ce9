"""Compiled form of the access-rule automata (Figure 2 of the paper).

Each rule object (an XPath in ``XP{[],*,//}``) compiles into a
:class:`CompiledPath`: the *navigational path* is the sequence of
compiled steps (white states in Figure 2), and every predicate of a step
is itself a compiled (relative) path attached to that step (gray states
in Figure 2).  The construction is recursive, so nested branches such as
``//a[b[c]]/d`` are supported.

Beyond the structure itself, compilation precomputes per-state *suffix
label sets*: the set of tag names that must still appear for the
navigational path to complete from a given state.  The skip index
compares these sets against a subtree's tag bitmap to decide whether an
automaton can possibly progress inside the subtree -- "to check whether
an access rule automaton is likely to reach its final state"
(Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xpathlib.ast import Axis, Comparison, NodeTest, Path, Predicate

#: Running count of :func:`compile_path` invocations (predicate
#: sub-compilations included).  The compile/evaluate split is asserted
#: against this: a cached policy must add zero to it.
_compile_calls = 0


def compile_call_count() -> int:
    """Total ``compile_path`` calls since interpreter start."""
    return _compile_calls


@dataclass(frozen=True, slots=True)
class CompiledStep:
    """One navigational state transition.

    ``predicates`` holds the compiled predicate paths instantiated when
    this step matches; ``dot_comparisons`` holds ``[. op literal]``
    value tests on the matched node itself.

    ``match_name`` and ``descendant`` are the step's transition table,
    flattened at compile time: the product machine
    (:mod:`repro.core.product`) decides advance/stay per position with
    two attribute loads when it builds a transition.  (A real
    tag->state dict is impossible here -- wildcard steps accept an
    unbounded alphabet -- so the "dict" degenerates to its two
    precomputed entries.)
    """

    axis: Axis
    test: NodeTest
    predicates: tuple["CompiledPath", ...] = field(default=())
    dot_comparisons: tuple[Comparison, ...] = field(default=())
    #: Tag accepted by this step, ``None`` for the wildcard (derived).
    match_name: str | None = field(init=False, repr=False, compare=False)
    #: Whether the step rides the descendant axis (derived).
    descendant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "match_name", self.test.name)
        object.__setattr__(self, "descendant", self.axis is Axis.DESCENDANT)


@dataclass(frozen=True, slots=True)
class CompiledPath:
    """A compiled navigational path with predicate sub-automata.

    ``comparison`` is a value test applied to the text of nodes matched
    by the final step (used by predicate paths such as
    ``[price < "10"]``); rule and query spines never carry one.

    ``suffix_labels[i]`` is the set of non-wildcard tag names mentioned
    by steps ``i..`` of the spine -- the labels that must all occur in a
    subtree for the automaton to complete inside it.
    """

    steps: tuple[CompiledStep, ...]
    comparison: Comparison | None
    suffix_labels: tuple[frozenset[str], ...]

    def state_count(self) -> int:
        """Number of navigational states, including sub-automata."""
        count = len(self.steps) + 1
        for step in self.steps:
            for predicate in step.predicates:
                count += predicate.state_count()
        return count


def _compile_predicate(predicate: Predicate) -> "CompiledPath":
    assert predicate.path is not None
    return compile_path(predicate.path, comparison=predicate.comparison)


def compile_path(path: Path, comparison: Comparison | None = None) -> CompiledPath:
    """Compile a parsed path into its automaton form.

    ``comparison`` attaches a trailing value test (predicate paths
    only).  The same routine compiles absolute rule/query objects and
    relative predicate paths; the distinction lives in how the engine
    seeds them: rule spines at the root, predicate paths at the node
    whose step carries them.
    """
    global _compile_calls
    _compile_calls += 1
    steps: list[CompiledStep] = []
    for step in path.steps:
        predicate_paths: list[CompiledPath] = []
        dot_comparisons: list[Comparison] = []
        for predicate in step.predicates:
            if predicate.path is None:
                assert predicate.comparison is not None
                dot_comparisons.append(predicate.comparison)
            else:
                predicate_paths.append(_compile_predicate(predicate))
        steps.append(
            CompiledStep(
                axis=step.axis,
                test=step.test,
                predicates=tuple(predicate_paths),
                dot_comparisons=tuple(dot_comparisons),
            )
        )
    suffix: list[frozenset[str]] = [frozenset()] * (len(steps) + 1)
    running: frozenset[str] = frozenset()
    for index in range(len(steps) - 1, -1, -1):
        name = steps[index].test.name
        if name is not None:
            running = running | {name}
        suffix[index] = running
    return CompiledPath(
        steps=tuple(steps),
        comparison=comparison,
        suffix_labels=tuple(suffix),
    )
