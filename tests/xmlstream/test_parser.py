"""Unit tests for the incremental XML event parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import docgen
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.parser import XMLSyntaxError, parse_events, parse_string
from repro.xmlstream.writer import write_string
from repro.xmlstream.tree import tree_to_events

from tests.strategies import elements


def test_single_element():
    assert parse_string("<a></a>") == [OpenEvent("a"), CloseEvent("a")]


def test_self_closing_element():
    assert parse_string("<a/>") == [OpenEvent("a"), CloseEvent("a")]


def test_text_content():
    events = parse_string("<a>hello</a>")
    assert events == [OpenEvent("a"), ValueEvent("hello"), CloseEvent("a")]


def test_nested_structure():
    events = parse_string("<a><b>x</b><c/></a>")
    assert events == [
        OpenEvent("a"),
        OpenEvent("b"),
        ValueEvent("x"),
        CloseEvent("b"),
        OpenEvent("c"),
        CloseEvent("c"),
        CloseEvent("a"),
    ]


def test_attributes_double_and_single_quotes():
    events = parse_string("""<a x="1" y='2'/>""")
    assert events[0] == OpenEvent("a", (("x", "1"), ("y", "2")))


def test_attribute_entities_decoded():
    events = parse_string('<a t="&lt;&amp;&gt;"/>')
    assert events[0].attribute("t") == "<&>"


def test_text_entities_decoded():
    events = parse_string("<a>&lt;tag&gt; &amp; &quot;q&quot; &#65;&#x42;</a>")
    assert events[1] == ValueEvent('<tag> & "q" AB')


def test_unknown_entity_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a>&nope;</a>")


def test_cdata_section():
    events = parse_string("<a><![CDATA[<not><parsed>&amp;]]></a>")
    assert events[1] == ValueEvent("<not><parsed>&amp;")


def test_cdata_merges_with_text():
    events = parse_string("<a>x<![CDATA[y]]>z</a>")
    assert events[1] == ValueEvent("xyz")


def test_comments_skipped():
    events = parse_string("<a><!-- hidden <b> --><c/></a>")
    assert events == [
        OpenEvent("a"), OpenEvent("c"), CloseEvent("c"), CloseEvent("a")
    ]


def test_processing_instruction_and_doctype_skipped():
    text = "<?xml version='1.0'?><!DOCTYPE a><a/>"
    assert parse_string(text) == [OpenEvent("a"), CloseEvent("a")]


def test_whitespace_only_text_dropped_by_default():
    events = parse_string("<a>\n  <b/>\n</a>")
    assert events == [
        OpenEvent("a"), OpenEvent("b"), CloseEvent("b"), CloseEvent("a")
    ]


def test_whitespace_kept_when_requested():
    events = parse_string("<a> <b/></a>", keep_whitespace=True)
    assert ValueEvent(" ") in events


def test_mismatched_close_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a></b>")


def test_unclosed_element_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a><b></b>")


def test_multiple_roots_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a/><b/>")


def test_text_outside_root_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a/>stray")


def test_empty_input_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("   ")


def test_unterminated_comment_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a><!-- oops</a>")


def test_unterminated_cdata_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a><![CDATA[oops</a>")


def test_malformed_attribute_rejected():
    with pytest.raises(XMLSyntaxError):
        parse_string("<a x=1/>")


def test_error_offsets_reported():
    try:
        parse_string("<a></b>")
    except XMLSyntaxError as exc:
        assert exc.offset > 0
    else:  # pragma: no cover
        pytest.fail("expected a syntax error")


@settings(max_examples=100, deadline=None)
@given(root=elements(), chunk=st.integers(min_value=1, max_value=7))
def test_incremental_parsing_equals_whole_string(root, chunk):
    """Chunking the input at arbitrary positions changes nothing."""
    text = write_string(tree_to_events(root))
    whole = parse_string(text)
    pieces = [text[i:i + chunk] for i in range(0, len(text), chunk)]
    assert list(parse_events(pieces)) == whole


@settings(max_examples=100, deadline=None)
@given(root=elements())
def test_parse_write_round_trip(root):
    events = list(tree_to_events(root))
    assert parse_string(write_string(events)) == events


# -- the error contract ------------------------------------------------------
#
# Each malformed input with the exact message and offset the parser
# reports.  The offset is the same however the input is chunked: the
# scanner reports an error where the malformed token starts to go
# wrong, never where a chunk happened to end.

_MALFORMED = [
    # empty input
    ("", "document has no root element", 0),
    ("   ", "document has no root element", 3),
    ("<?xml version='1.0'?>", "document has no root element", 21),
    ("<!-- c -->", "document has no root element", 10),
    # bad name
    ("<1a/>", "expected a name, found '1'", 1),
    ("<a><1/></a>", "expected a name, found '1'", 4),
    ("< a/>", "expected a name, found ' '", 1),
    ("<", "expected a name, found ''", 1),
    ("<a 1='x'/>", "expected a name, found '1'", 3),
    ("<a x='1' 2/>", "expected a name, found '2'", 9),
    ("<ab='1'/>", "expected a name, found '='", 3),
    ("<a></ a>", "expected a name, found ' '", 5),
    ("<a></1>", "expected a name, found '1'", 5),
    ("<a></>", "expected a name, found '>'", 5),
    ("<a></", "expected a name, found ''", 5),
    # missing '='
    ("<a x '1'/>", "expected '=' after attribute 'x'", 5),
    ("<a x/>", "expected '=' after attribute 'x'", 4),
    ("<a x", "expected '=' after attribute 'x'", 4),
    # unquoted value
    ("<a x=1/>", "attribute value must be quoted", 5),
    ("<a x=/>", "attribute value must be quoted", 5),
    ("<a x=", "attribute value must be quoted", 5),
    # unterminated value
    ("<a x='1/>", "unterminated attribute value", 6),
    ('<a x="1/>', "unterminated attribute value", 6),
    ("<a x='1", "unterminated attribute value", 6),
    # unterminated tag
    ("<a /x>", "expected '/>'", 3),
    ("<a x='1'/ >", "expected '/>'", 8),
    ("<a/", "expected '/>'", 2),
    ("<a x='1'", "unexpected end of tag", 8),
    ("<a", "unexpected end of tag", 2),
    ("<a ", "unexpected end of tag", 3),
    # unterminated entity
    ("<a>&amp</a>", "unterminated entity reference", 3),
    ("<a x='&amp'/>", "unterminated entity reference", 6),
    ("<a>x &lt; y &amp z</a>", "unterminated entity reference", 12),
    # unterminated comment, CDATA, PI or declaration
    ("<a><!-- oops</a>", "unterminated comment", 7),
    ("<!-- oops", "unterminated comment", 4),
    ("<a><!--->", "unterminated comment", 7),
    ("<a><![CDATA[oops</a>", "unterminated CDATA section", 12),
    ("<a><?pi oops</a>", "unterminated processing instruction", 5),
    ("<?xml", "unterminated processing instruction", 2),
    ("<a><!DOCTYPE oops", "unterminated declaration", 5),
    ("<!DOCTYPE", "unterminated declaration", 2),
    ("<a><![CDAT", "unterminated declaration", 5),
    ("<a><!-", "unterminated declaration", 5),
    # unknown entity
    ("<a>&nope;</a>", "unknown entity &nope;", 3),
    ("<a x='&nope;'/>", "unknown entity &nope;", 6),
    ("<a x='&nope;' y=1/>", "unknown entity &nope;", 6),
    ("<a>&#xZZ;</a>", "unknown entity &#xZZ;", 3),
    ("<a>ok &bad; ok</a>", "unknown entity &bad;", 6),
    ("<a>&;</a>", "unknown entity &;", 3),
    ("<a/><b x='&bad;'/>", "unknown entity &bad;", 10),
    # malformed or mismatched close
    ("<a></a b>", "malformed closing tag", 7),
    ("<a></a", "malformed closing tag", 6),
    ("<a></a x='1'>", "malformed closing tag", 7),
    ("</a>", "unmatched closing tag </a>", 4),
    ("<a/></a>", "unmatched closing tag </a>", 8),
    ("<a></b>", "closing tag </b> does not match <a>", 7),
    ("<a><b></a></b>", "closing tag </a> does not match <b>", 10),
    # unclosed element
    ("<a><b></b>", "unclosed elements at end of input", 10),
    ("<a>", "unclosed elements at end of input", 3),
    ("<a>text", "unclosed elements at end of input", 7),
    ("<a><b/>", "unclosed elements at end of input", 7),
    # multiple roots
    ("<a/><b/>", "multiple root elements", 8),
    ("<a></a><b></b>", "multiple root elements", 10),
    ("<a/> <b/>", "multiple root elements", 9),
    # text outside the root
    ("<a/>stray", "text outside the root element", 9),
    ("stray<a/>", "text outside the root element", 5),
    ("<a/>stray<!-- c -->", "text outside the root element", 9),
    ("<a/>&amp;", "text outside the root element", 9),
    ("x", "text outside the root element", 1),
    ("<a/><![CDATA[x]]>", "text outside the root element", 17),
]


@pytest.mark.parametrize("size", [None, 1, 2, 3, 7])
@pytest.mark.parametrize(("text", "message", "offset"), _MALFORMED)
def test_error_message_and_offset(text, message, offset, size):
    pieces = [text] if size is None else [
        text[i:i + size] for i in range(0, len(text), size)
    ]
    with pytest.raises(XMLSyntaxError) as caught:
        list(parse_events(pieces))
    assert (str(caught.value), caught.value.offset) == (
        f"{message} (at offset {offset})", offset,
    )


def _with_entities(root):
    """``root`` with entity-bearing text and attributes on every element
    that has attributes."""
    for node in root.iter():
        if node.attributes:
            node.attributes["note"] = "R&D <\"x\"> 'y'"
            node.children.insert(0, " a & b < c > d \"e\" ")
    return root


@pytest.mark.parametrize(
    "build",
    [
        lambda: docgen.hospital(20),
        lambda: docgen.agenda(6, 4),
        lambda: docgen.video_catalog(16),
    ],
    ids=["hospital", "agenda", "video"],
)
def test_docgen_chunk_transparency(build):
    text = write_string(tree_to_events(_with_entities(build())))
    assert "&amp;" in text and "&lt;" in text and "&quot;" in text
    whole = parse_string(text, keep_whitespace=True)
    assert ValueEvent(" a & b < c > d \"e\" ") in whole
    assert any(
        ("note", "R&D <\"x\"> 'y'") in event.attributes
        for event in whole
        if isinstance(event, OpenEvent)
    )
    for size in (1, 2, 3, 7, 64, 1000):
        pieces = [text[i:i + size] for i in range(0, len(text), size)]
        assert list(parse_events(pieces, keep_whitespace=True)) == whole


def test_markup_at_a_chunk_end_is_yielded_before_the_next_chunk():
    """A tag that ends a chunk is complete: its events come out before
    the parser asks for another chunk."""

    def chunks():
        yield "<a>"
        yield "<b x='1'/>"
        raise RuntimeError("next chunk requested")

    events = parse_events(chunks())
    assert [next(events) for _ in range(3)] == [
        OpenEvent("a"), OpenEvent("b", (("x", "1"),)), CloseEvent("b")
    ]
    with pytest.raises(RuntimeError):
        next(events)
