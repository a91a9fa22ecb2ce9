"""Unit tests for the XPath AST helpers."""

import pytest

from repro.xpathlib.ast import Comparison, NodeTest, Path, Predicate
from repro.xpathlib.parser import parse_path


def test_node_test_wildcard():
    assert NodeTest(None).name is None
    assert NodeTest(None).matches("x")
    assert NodeTest("a").matches("a")
    assert not NodeTest("a").matches("b")


def test_comparison_string_and_numeric():
    assert Comparison("=", "abc").test("abc")
    assert Comparison("<", "10").test("9.5")
    assert not Comparison("<", "10").test("10")
    assert Comparison(">=", "2").test("2")
    assert Comparison("!=", "a").test("b")
    # Mixed: falls back to string comparison.
    assert Comparison("<", "b").test("a")


def test_comparison_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Comparison("~", "x")


def test_predicate_validation():
    with pytest.raises(ValueError):
        Predicate(None, None)  # dot predicate needs a comparison
    with pytest.raises(ValueError):
        Predicate(parse_path("/a"), None)  # absolute predicate path


def test_path_needs_steps():
    with pytest.raises(ValueError):
        Path(())


def test_label_set_collects_nested():
    path = parse_path('//a[b[c]]/d[e = "1"]')
    assert path.label_set() == {"a", "b", "c", "d", "e"}


def test_label_set_ignores_wildcards():
    assert parse_path("//*[x]").label_set() == {"x"}


def test_spine_strips_predicates():
    path = parse_path("//a[b]/c[d]")
    spine = path.spine()
    assert not any(step.predicates for step in spine.steps)
    assert str(spine) == "//a/c"


def test_str_forms():
    for text in ("/a", "//a", "/a//b", "//a[b]/c", '//a[b = "1"]',
                 '//a[. = "x"]', "//*[.//y]"):
        assert str(parse_path(text)) == text
