"""Unit and differential tests for containment-based view answering.

The load-bearing property: within the shapes ``answerable`` admits,
:func:`~repro.cache.semantic.answer_from_view` must produce *exactly*
the bytes the reference engine would -- the cached text round-trips
through the parser and back out through the shared writer with nothing
gained or lost.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import semantic
from repro.core.delivery import ViewMode
from repro.core.reference import reference_view
from repro.core.rules import RuleSet, Sign
from repro.workloads import docgen
from repro.xmlstream.tree import Element, tree_to_events
from repro.xmlstream.writer import write_string
from repro.xpathlib import parse_path


# -- admission rules ---------------------------------------------------------


def test_parse_query_rejects_garbage_and_relative_paths():
    assert semantic.parse_query("/a/b") is not None
    assert semantic.parse_query("///") is None
    assert semantic.parse_query("not an xpath [") is None


def test_structural_means_predicate_free():
    assert semantic.structural(parse_path("/a//b/*"))
    assert not semantic.structural(parse_path("/a[b]/c"))
    assert not semantic.structural(parse_path('//a[. = "1"]'))


def test_answerable_only_for_buffered_skeleton_sessions():
    assert semantic.answerable(None, "buffer", "skeleton")
    assert semantic.answerable("/a/b", "buffer", "skeleton")
    assert not semantic.answerable("/a/b", "refetch", "skeleton")
    assert not semantic.answerable("/a/b", "buffer", "prune")
    assert not semantic.answerable("/a[b]", "buffer", "skeleton")
    assert not semantic.answerable("][", "buffer", "skeleton")


def test_covers_is_containment_with_a_full_view_donor():
    assert semantic.covers(None, "/a/b")  # whole view covers everything
    assert semantic.covers("//b", "/a/b")
    assert not semantic.covers("/a/b", "//b")
    assert not semantic.covers("//b", '/a/b[c = "1"]')  # predicate target
    assert not semantic.covers("/a[b]", "/a")  # donor narrower


# -- answering ---------------------------------------------------------------


def test_answer_from_empty_view_is_empty():
    assert semantic.answer_from_view("", "/a") == ""


def test_answer_from_multirooted_view_is_refused():
    assert semantic.answer_from_view("<a/><b/>", "/a") is None


def test_answer_selects_subtrees_with_retained_ancestors():
    view = "<notes><work>plan<task>ship</task></work><admin>keys</admin></notes>"
    assert (
        semantic.answer_from_view(view, "/notes/work")
        == "<notes><work>plan<task>ship</task></work></notes>"
    )
    assert semantic.answer_from_view(view, "//task") == (
        "<notes><work><task>ship</task></work></notes>"
    )
    assert semantic.answer_from_view(view, "/notes/none") == ""


def test_answer_refuses_predicates_even_when_direct():
    view = "<notes><work>plan</work></notes>"
    assert semantic.answer_from_view(view, "/notes/work[x]") is None


# -- byte parity with the reference engine -----------------------------------
#
# A cached view is itself reference-engine output; answering ``q``
# from it must equal running the reference engine on the *original*
# tree with ``q`` as the query (the view for ``q`` under the same
# PERMIT-all policy).  Containment guarantees the donor retained every
# node ``q`` selects, so the two evaluations see identical subtrees.

_CORPUS = {
    "hospital": (
        docgen.hospital(n_patients=3),
        ["hospital", "ward", "patient", "episode", "diagnosis", "name",
         "prescription", "billing"],
    ),
    "agenda": (
        docgen.agenda(n_members=3, events_per_member=3),
        ["agenda", "member", "event", "title", "participants", "private"],
    ),
}


@st.composite
def _structural_query(draw, tags):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        axis = draw(st.sampled_from(["/", "//"]))
        steps.append(f"{axis}{draw(st.sampled_from(tags + ['*']))}")
    return "".join(steps)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_answer_matches_reference_evaluation_on_docgen(data):
    corpus = data.draw(st.sampled_from(sorted(_CORPUS)), label="corpus")
    root, tags = _CORPUS[corpus]
    query = data.draw(_structural_query(tags), label="query")
    # The donor: the full tree rendered as a PERMIT-all skeleton view.
    donor_xml = write_string(tree_to_events(root))
    expected = write_string(
        reference_view(
            root,
            RuleSet([]),
            query=parse_path(query),
            mode=ViewMode.SKELETON,
            default=Sign.PERMIT,
        )
    )
    assert semantic.answer_from_view(donor_xml, query) == expected


# -- escaped content ---------------------------------------------------------
#
# Text and attribute values that carry the escaped characters, plus
# whitespace-only text nodes, must survive the parse of the cached
# view and come back out of the writer byte for byte.


def _escaped_tree():
    root = Element("r", {"title": 'R&D <"lab"> & co'})
    a = root.child("a", "x &amp; y < z > w", kind='"quoted" & <angled>')
    a.add_text("   ")
    b = a.child("b", "&lt;already&gt; \"escaped\"")
    b.child("c", "  ")
    a.child("c", "tail & end")
    root.add_text("\n\t")
    d = root.child("d", kind="plain")
    d.child("b", "<b>not a tag</b>")
    d.add_text(" ")
    return root


_ESCAPED_QUERIES = [
    "/r", "/r/a", "/r/d", "//b", "//c", "/r/*", "/r/a/b", "/r//c",
    "//*", "/r/a/c", "/r/d/b", "//b/c", "/r/none",
]


def test_escaped_view_answers_match_reference_evaluation():
    root = _escaped_tree()
    donor_xml = write_string(tree_to_events(root))
    for entity in ("&amp;", "&lt;", "&gt;", "&quot;"):
        assert entity in donor_xml
    for query in _ESCAPED_QUERIES:
        expected = write_string(
            reference_view(
                root,
                RuleSet([]),
                query=parse_path(query),
                mode=ViewMode.SKELETON,
                default=Sign.PERMIT,
            )
        )
        assert semantic.answer_from_view(donor_xml, query) == expected, query


def test_escaped_multirooted_view_is_refused():
    view = '<a k="&quot;">x &amp; y</a><b>&lt;</b>'
    assert semantic.answer_from_view(view, "/a") is None


def test_view_with_top_level_text_is_refused():
    for view in ("text<a/>", "<a/>tail &amp;", " <a>x</a>"):
        assert semantic.answer_from_view(view, "/a") is None
