"""Non-streaming oracle for differential testing.

Implements the access-control semantics of Section 2.2 directly on a
materialized tree, with none of the streaming machinery: rule node sets
come from the reference XPath evaluator, decisions from a literal
reading of the conflict-resolution policies, and the view from a
plain walk of the tree.  The streaming engine must agree with this
module on every document -- that equivalence is the central property
test of the repository.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.delivery import ViewMode
from repro.core.rules import RuleSet, Sign, Subject
from repro.xmlstream.events import CloseEvent, Event, OpenEvent, ValueEvent
from repro.xmlstream.tree import Element
from repro.xpathlib.ast import Path
from repro.xpathlib.evaluator import evaluate_path
from repro.xpathlib.parser import parse_path


def _direct_matches(
    rules: RuleSet, root: Element
) -> dict[int, list[Sign]]:
    matches: dict[int, list[Sign]] = {}
    for rule in rules:
        for node in evaluate_path(rule.object, root):
            matches.setdefault(id(node), []).append(rule.sign)
    return matches


def _decide(
    node: Element,
    matches: dict[int, list[Sign]],
    default: Sign,
    cache: dict[int, Sign],
) -> Sign:
    """Decision for ``node``: direct matches with Denial-Takes-Precedence,
    else the nearest ancestor decision (Most-Specific-Object).

    Walks up the parent chain with a loop, so any depth is fine, and
    caches the decision of every node it passed.
    """
    passed: list[Element] = []
    current: Element | None = node
    decision = default
    while current is not None:
        cached = cache.get(id(current))
        if cached is not None:
            decision = cached
            break
        passed.append(current)
        direct = matches.get(id(current))
        if direct:
            decision = Sign.DENY if Sign.DENY in direct else Sign.PERMIT
            break
        current = current.parent
    for each in passed:
        cache[id(each)] = decision
    return decision


def reference_view(
    root: Element,
    rules: RuleSet,
    subject: Subject | str | None = None,
    query: Path | str | None = None,
    mode: ViewMode = ViewMode.SKELETON,
    default: Sign = Sign.DENY,
) -> list[Event]:
    """Compute the authorized view on a materialized tree.

    Semantics (identical to the streaming engine's):

    * ``delivered(n)`` iff decision(n) is PERMIT and ``n`` lies in a
      query-selected subtree (every node is selected when there is no
      query);
    * ``retained(n)`` iff delivered(n) or some descendant is retained;
    * delivered nodes appear with attributes and direct text, retained
      but undelivered nodes appear as bare skeletons (SKELETON mode) or
      vanish with their children spliced upward (PRUNE mode).
    """
    if subject is not None:
        rules = rules.for_subject(subject)
    if isinstance(query, str):
        query = parse_path(query)
    matches = _direct_matches(rules, root)

    selected: set[int] | None = None
    if query is not None:
        selected = set()
        for node in evaluate_path(query, root):
            for member in node.iter():
                selected.add(id(member))

    # One pass in document order with an explicit stack, so any depth is
    # fine.  A child without direct matches takes its parent's decision
    # (Most-Specific-Object).  An undelivered element opens as a ``None``
    # placeholder: at its close it is dropped when nothing was retained
    # inside it, else it becomes a bare skeleton open (SKELETON) or stays
    # a placeholder that the final filter splices out (PRUNE).
    out: list[Event | None] = []
    stack: list[tuple[Element, Sign, bool, int, Iterator[Element | str]]] = []

    def enter(node: Element, decision: Sign) -> None:
        delivered = decision is Sign.PERMIT and (
            selected is None or id(node) in selected
        )
        out.append(
            OpenEvent(node.tag, tuple(node.attributes.items()))
            if delivered
            else None
        )
        stack.append((node, decision, delivered, len(out), iter(node.children)))

    enter(root, _decide(root, matches, default, {}))
    while stack:
        node, decision, delivered, start, children = stack[-1]
        for child in children:
            if isinstance(child, Element):
                direct = matches.get(id(child))
                if direct:
                    enter(child, Sign.DENY if Sign.DENY in direct else Sign.PERMIT)
                else:
                    enter(child, decision)
                break
            if delivered and child:
                out.append(ValueEvent(child))
        else:
            stack.pop()
            if delivered:
                out.append(CloseEvent(node.tag))
            elif len(out) == start:
                out.pop()
            elif mode is not ViewMode.PRUNE:
                out[start - 1] = OpenEvent(node.tag)
                out.append(CloseEvent(node.tag))
    return [event for event in out if event is not None]
