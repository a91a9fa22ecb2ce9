"""Unit tests for the XPath fragment parser (grammar coverage)."""

import pytest
from hypothesis import given, settings

from repro.xpathlib.ast import Axis, Comparison
from repro.xpathlib.parser import XPathSyntaxError, parse_path

from tests.strategies import xpath_texts


def test_simple_child_path():
    path = parse_path("/a/b")
    assert path.absolute
    assert [s.axis for s in path.steps] == [Axis.CHILD, Axis.CHILD]
    assert [s.test.name for s in path.steps] == ["a", "b"]


def test_descendant_axis():
    path = parse_path("//a//b")
    assert all(s.axis is Axis.DESCENDANT for s in path.steps)


def test_mixed_axes():
    path = parse_path("/a//b/c")
    assert [s.axis for s in path.steps] == [
        Axis.CHILD, Axis.DESCENDANT, Axis.CHILD
    ]


def test_wildcard():
    path = parse_path("//*")
    assert path.steps[0].test.name is None
    assert path.steps[0].test.matches("anything")


def test_existence_predicate():
    path = parse_path("//b[c]/d")
    predicate = path.steps[0].predicates[0]
    assert predicate.comparison is None
    assert not predicate.path.absolute
    assert predicate.path.steps[0].test.name == "c"


def test_paper_figure2_rule_parses():
    """The exact rule of Figure 2: ``//b[c]/d``."""
    path = parse_path("//b[c]/d")
    assert len(path.steps) == 2
    assert path.steps[0].axis is Axis.DESCENDANT
    assert path.steps[1].axis is Axis.CHILD
    assert len(path.steps[0].predicates) == 1


def test_value_comparison_predicate():
    path = parse_path('//patient[name = "Smith"]')
    predicate = path.steps[0].predicates[0]
    assert predicate.comparison == Comparison("=", "Smith")


def test_numeric_literal_predicate():
    path = parse_path("//item[price < 10.5]")
    assert path.steps[0].predicates[0].comparison == Comparison("<", "10.5")


def test_all_comparison_operators():
    for op in ("=", "!=", "<", "<=", ">", ">="):
        path = parse_path(f'//a[b {op} "1"]')
        assert path.steps[0].predicates[0].comparison.op == op


def test_dot_predicate():
    path = parse_path('//member[. = "alice"]')
    predicate = path.steps[0].predicates[0]
    assert predicate.path is None
    assert predicate.comparison == Comparison("=", "alice")


def test_nested_predicates():
    path = parse_path("//a[b[c]]/d")
    outer = path.steps[0].predicates[0]
    inner = outer.path.steps[0].predicates[0]
    assert inner.path.steps[0].test.name == "c"


def test_relative_descendant_inside_predicate():
    path = parse_path("//a[.//x]")
    predicate_path = path.steps[0].predicates[0].path
    assert predicate_path.steps[0].axis is Axis.DESCENDANT


def test_multiple_predicates_on_one_step():
    path = parse_path("//a[b][c]")
    assert len(path.steps[0].predicates) == 2


def test_relative_path_rejected_at_top_level():
    with pytest.raises(XPathSyntaxError):
        parse_path("a/b")


def test_dot_relative_rejected_at_top_level():
    with pytest.raises(XPathSyntaxError):
        parse_path("./a")


def test_empty_input_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path("")


def test_trailing_garbage_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path("/a]")


def test_unclosed_predicate_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path("/a[b")


def test_missing_literal_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path("/a[b = ]")


def test_unterminated_string_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path('/a[b = "x]')


def test_double_axis_rejected():
    with pytest.raises(XPathSyntaxError):
        parse_path("/a///b")


@settings(max_examples=200, deadline=None)
@given(text=xpath_texts())
def test_unparse_reparse_fixpoint(text):
    """str(parse(text)) parses back to an identical AST."""
    path = parse_path(text)
    assert parse_path(str(path)) == path
