"""Abstract syntax for the fragment ``XP{[],*,//}``.

A :class:`Path` is a sequence of :class:`Step`; each step carries an
axis (child or descendant), a node test (a tag name or the wildcard) and
zero or more predicates.  A predicate holds a *relative* path and an
optional comparison on the text value of the node(s) it reaches -- this
matches the expressiveness used by the paper's access rules (existence
branches such as ``//b[c]/d`` and value branches such as
``//patient[name = "Smith"]``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Axis(enum.Enum):
    """The two axes of the fragment."""

    CHILD = "/"
    DESCENDANT = "//"


@dataclass(frozen=True, slots=True)
class NodeTest:
    """A tag-name test; ``name is None`` denotes the wildcard ``*``."""

    name: str | None

    def matches(self, tag: str) -> bool:
        """Whether this test accepts an element with the given tag."""
        return self.name is None or self.name == tag

    def __str__(self) -> str:
        return "*" if self.name is None else self.name


WILDCARD = NodeTest(None)

_COMPARISON_OPS = ("=", "!=", "<=", ">=", "<", ">")


@dataclass(frozen=True, slots=True)
class Comparison:
    """A comparison of a node's text value against a literal."""

    op: str
    literal: str

    def __post_init__(self) -> None:
        if self.op not in _COMPARISON_OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def test(self, value: str) -> bool:
        """Evaluate ``value <op> literal``.

        If both sides parse as numbers the comparison is numeric,
        otherwise it is a plain string comparison -- the behaviour the
        workload queries rely on.
        """
        left: float | str
        right: float | str
        try:
            left, right = float(value), float(self.literal)
        except ValueError:
            left, right = value, self.literal
        if self.op == "=":
            return left == right
        if self.op == "!=":
            return left != right
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right

    def __str__(self) -> str:
        return f"{self.op} \"{self.literal}\""


@dataclass(frozen=True, slots=True)
class Predicate:
    """A branch ``[path]``, ``[path op literal]`` or ``[. op literal]``.

    ``path is None`` denotes the context-node value test ``[. op lit]``.
    """

    path: "Path | None"
    comparison: Comparison | None = None

    def __post_init__(self) -> None:
        if self.path is None and self.comparison is None:
            raise ValueError("a dot predicate requires a comparison")
        if self.path is not None and self.path.absolute:
            raise ValueError("predicate paths must be relative")

    def __str__(self) -> str:
        inner = "." if self.path is None else str(self.path)
        if self.comparison is not None:
            inner = f"{inner} {self.comparison}"
        return f"[{inner}]"


@dataclass(frozen=True, slots=True)
class Step:
    """One location step: axis, node test and predicates."""

    axis: Axis
    test: NodeTest
    predicates: tuple[Predicate, ...] = field(default=())

    def __str__(self) -> str:
        return f"{self.test}" + "".join(str(p) for p in self.predicates)


@dataclass(frozen=True, slots=True)
class Path:
    """A location path.

    ``absolute`` distinguishes rule/query objects (evaluated from the
    document root) from the relative paths inside predicates (evaluated
    from the context node).
    """

    steps: tuple[Step, ...]
    absolute: bool = True

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a path needs at least one step")

    def __str__(self) -> str:
        parts: list[str] = []
        for index, step in enumerate(self.steps):
            separator = step.axis.value
            if index == 0 and not self.absolute:
                separator = "" if step.axis is Axis.CHILD else ".//"
            parts.append(f"{separator}{step}")
        return "".join(parts)

    # -- structural helpers used by the compiler and analyses ---------

    def label_set(self) -> frozenset[str]:
        """All non-wildcard tag names mentioned anywhere in the path.

        This is the information the skip index filters on: if a label
        required by a rule is absent from a subtree's tag bitmap, the
        rule cannot progress inside that subtree.
        """
        labels: set[str] = set()
        for step in self.steps:
            if step.test.name is not None:
                labels.add(step.test.name)
            for predicate in step.predicates:
                if predicate.path is not None:
                    labels.update(predicate.path.label_set())
        return frozenset(labels)

    def spine(self) -> "Path":
        """The path without any predicates (the navigational part)."""
        return Path(
            tuple(Step(s.axis, s.test) for s in self.steps),
            absolute=self.absolute,
        )
