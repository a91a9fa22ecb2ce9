"""Containment-based semantic answering over cached authorized views.

A cached view for query ``p`` is a *superset* of the view for any
query ``q`` with ``q ⊆ p`` -- so ``q`` can be answered locally by
re-evaluating it over the cached plaintext, the way a semantic cache
answers a narrow question from a previously answered broader one.
Containment is decided by the sound tree-pattern homomorphism of
:func:`repro.xpathlib.containment.contains` (Miklau & Suciu): ``True``
only when containment is *certain*, so a false positive -- which would
serve wrong bytes -- cannot come from the prover, only from a bug
(the hypothesis fuzz in ``tests/xpathlib`` cross-checks it against
brute-force evaluation for exactly this reason).

Answering is deliberately restricted to the shapes where it is exactly
byte-faithful to a fresh card pull:

* the cached entry must be a ``SKELETON`` view pulled with the
  ``BUFFER`` strategy -- skeleton views preserve every retained
  ancestor chain (so structural matching over the view agrees with
  matching over the document) and buffered views are settled text in
  document order (no refetched fragments to splice);
* the new query must be *structural* (no value predicates):
  predicates may evaluate differently over the filtered view than
  over the full document, so they always miss to a live pull.

Within those bounds the answer is computed with the reference
evaluator: build the cached view's tree straight from the
:func:`~repro.xmlstream.parser.parse_events` generator (no event list
in between), re-run :func:`repro.core.reference.reference_view` with
an empty PERMIT-all policy and ``q`` as the query, and render with the
shared writer -- the same writer the card's applet uses, so the bytes
match a fresh pull exactly (the differential suite asserts this over
the docgen corpus).  The reference evaluator walks the tree and
compiles nothing; answering through the streaming
:class:`~repro.core.pipeline.AccessController` would add
``compile_path`` calls to every answer and move the ``feeds.compiles``
count that E20's ``exact`` block pins.
"""

from __future__ import annotations

from repro.core.delivery import ViewMode
from repro.core.reference import reference_view
from repro.core.rules import RuleSet, Sign
from repro.xmlstream.parser import parse_events
from repro.xmlstream.tree import Element, events_to_tree
from repro.xmlstream.writer import write_string
from repro.xpathlib import XPathSyntaxError, parse_path
from repro.xpathlib.ast import Path
from repro.xpathlib.containment import contains

__all__ = [
    "answer_from_view",
    "answerable",
    "covers",
    "parse_query",
    "structural",
]


def parse_query(text: str) -> Path | None:
    """``text`` as a parsed absolute path, or ``None`` if unusable."""
    try:
        path = parse_path(text)
    except XPathSyntaxError:
        return None
    return path if path.absolute else None


def structural(path: Path) -> bool:
    """Whether ``path`` is predicate-free (pure tag/axis structure).

    Structural queries select by tag path alone, which a skeleton view
    preserves verbatim; predicate values may have been filtered out of
    the view, so predicate-bearing queries are never answered from
    cache.
    """
    return all(not step.predicates for step in path.steps)


def answerable(query: str | None, strategy: str, view_mode: str) -> bool:
    """Whether a query in this session shape may be answered semantically."""
    if strategy != "buffer" or view_mode != "skeleton":
        return False
    if query is None:
        return True  # the whole authorized view; trivially answerable
    path = parse_query(query)
    return path is not None and structural(path)


def covers(donor_query: str | None, query: str) -> bool:
    """Sound test that the donor's cached view contains ``query``'s.

    A donor with no query holds the member's *entire* authorized view,
    which contains every query's view.  Otherwise containment is
    proven (or not) by the tree-pattern homomorphism; ``False`` simply
    means "not proven" and the caller falls through to a live pull.
    """
    q = parse_query(query)
    if q is None or not structural(q):
        return False
    if donor_query is None:
        return True
    p = parse_query(donor_query)
    return p is not None and contains(p, q)


def _view_root(view_xml: str) -> Element | None:
    """The single root element of a skeleton view, or ``None``.

    A skeleton view of a document is either empty (nothing authorized)
    or single-rooted (the document root is always the first retained
    ancestor).  Anything else -- two roots, or text beside the root --
    is not a shape this module answers from.  The tree is built as the
    scanner yields its events; no event list is kept.
    """
    wrapper = events_to_tree(parse_events(f"<v>{view_xml}</v>", keep_whitespace=True))
    if len(wrapper.children) != 1:
        return None
    root = wrapper.children[0]
    return root if isinstance(root, Element) else None


def answer_from_view(view_xml: str, query: str) -> str | None:
    """Evaluate ``query`` over a cached skeleton view; ``None`` = refuse.

    Every node in the cached view is, by construction, authorized for
    the subject -- so the re-evaluation runs the reference engine with
    an *empty, default-PERMIT* policy and ``query`` as the pull query:
    delivery and skeleton-retention then depend only on the query,
    exactly as they would in a fresh card pull restricted to the
    already-authorized content.
    """
    path = parse_query(query)
    if path is None or not structural(path):
        return None
    if not view_xml:
        return ""  # nothing was authorized; no query can select more
    root = _view_root(view_xml)
    if root is None:
        return None
    events = reference_view(
        root,
        RuleSet([]),
        query=path,
        mode=ViewMode.SKELETON,
        default=Sign.PERMIT,
    )
    return write_string(events)
