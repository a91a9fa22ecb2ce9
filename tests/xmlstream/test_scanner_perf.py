"""Behavioral coverage for the find/regex-based scanner rewrite.

These tests pin the properties the rewrite must keep: chunk-boundary
transparency (any split of the document parses identically) and linear
buffering for tokens that span many chunks (the seed's ``buffer +=
chunk`` grew quadratically on large single-token documents).
"""

import time

import pytest

from repro.xmlstream.escape import escape_attribute, escape_text, resolve_entity
from repro.xmlstream.parser import parse_events, parse_string


def _chunks(text: str, size: int):
    return [text[i:i + size] for i in range(0, len(text), size)]


def _time_best_of_three(chunks):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        list(parse_events(iter(chunks)))
        best = min(best, time.perf_counter() - start)
    return best


def test_any_chunking_parses_identically():
    doc = (
        '<root a="1&amp;2">text &lt;here&gt; <child x=\'q"q\'/>'
        "<!-- comment --><![CDATA[raw <stuff> ]]>tail</root>"
    )
    expected = parse_string(doc)
    for size in (1, 2, 3, 5, 7, 16, len(doc)):
        assert list(parse_events(_chunks(doc, size))) == expected


def test_name_spanning_many_chunks():
    tag = "averyverylongelementname" * 20
    doc = f"<{tag}>x</{tag}>"
    events = list(parse_events(_chunks(doc, 3)))
    assert events[0].tag == tag
    assert events[-1].tag == tag


def test_single_token_buffering_is_linear():
    """Doubling a one-token document must not quadruple parse time."""

    def build(n):
        return ["<root><big>"] + ["y" * 64] * n + ["</big></root>"]

    small = _time_best_of_three(build(1500))
    large = _time_best_of_three(build(6000))
    # 4x the input; allow up to 10x the time (noise margin) -- the
    # quadratic seed scanner showed ~16x and grew with size.
    assert large < small * 10, (small, large)


@pytest.mark.parametrize(
    ("opener", "closer"),
    [
        ("<!--", "-->"),
        ("<![CDATA[", "]]>"),
        ("<?pi ", "?>"),
        ("<big a='", "'/>"),
    ],
    ids=["comment", "cdata", "pi", "attribute"],
)
def test_long_markup_token_buffering_is_linear(opener, closer):
    """A ~200 KB comment, CDATA section, PI or attribute value fed in
    37-character chunks: 4x the input must not take 10x the time."""

    def measure(size):
        doc = f"<root>{opener}{'z' * size}{closer}</root>"
        return _time_best_of_three(_chunks(doc, 37))

    small, large = measure(50_000), measure(200_000)
    assert large < small * 10, (small, large)


def test_attribute_value_spanning_many_chunks():
    value = "v" * 50000
    chunks = ["<r a='"] + _chunks(value, 37) + ["'/>"]
    events = list(parse_events(chunks))
    assert events[0].attributes == (("a", value),)


def test_take_until_marker_split_across_chunks():
    doc = "<r><![CDATA[abc]]" + ">def</r>"  # "]]>" split at any point
    for size in (1, 2, 4):
        events = list(parse_events(_chunks(doc, size)))
        assert events[1].text == "abcdef"


# -- escape fast paths -------------------------------------------------------


def test_escape_text_matches_entity_table():
    assert escape_text("a&b<c>d") == "a&amp;b&lt;c&gt;d"
    clean = "no special characters at all"
    assert escape_text(clean) is clean  # fast path: no copy
    assert escape_text("&&&") == "&amp;&amp;&amp;"


def test_escape_attribute_covers_quotes():
    assert escape_attribute("a\"b'c&d<e>f") == "a&quot;b&apos;c&amp;d&lt;e&gt;f"
    clean = "plain"
    assert escape_attribute(clean) is clean


def test_escape_round_trips_through_resolver():
    original = "mixed & <content> with \"quotes\" and 'apostrophes'"
    escaped = escape_attribute(original)
    out = []
    position = 0
    while position < len(escaped):
        if escaped[position] == "&":
            semi = escaped.index(";", position)
            out.append(resolve_entity(escaped[position + 1:semi]))
            position = semi + 1
        else:
            out.append(escaped[position])
            position += 1
    assert "".join(out) == original
