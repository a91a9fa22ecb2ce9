"""Unit tests for XPath-to-automaton compilation."""

from repro.core.nfa import compile_path
from repro.xpathlib.ast import Axis
from repro.xpathlib.parser import parse_path


def test_simple_spine():
    compiled = compile_path(parse_path("/a/b"))
    assert len(compiled.steps) == 2
    assert compiled.steps[-1].test.name == "b"
    assert compiled.comparison is None


def test_figure2_structure():
    """Figure 2: ``//b[c]/d`` -- navigational path plus predicate path."""
    compiled = compile_path(parse_path("//b[c]/d"))
    assert compiled.steps[0].axis is Axis.DESCENDANT
    assert len(compiled.steps[0].predicates) == 1
    predicate = compiled.steps[0].predicates[0]
    assert predicate.steps[0].test.name == "c"
    assert compiled.steps[1].test.name == "d"


def test_nested_predicates_compile_recursively():
    compiled = compile_path(parse_path("//a[b[c]]/d"))
    outer = compiled.steps[0].predicates[0]
    assert len(outer.steps[0].predicates) == 1
    inner = outer.steps[0].predicates[0]
    assert inner.steps[0].test.name == "c"


def test_dot_comparisons_separated():
    compiled = compile_path(parse_path('//a[. = "x"][b]'))
    step = compiled.steps[0]
    assert len(step.dot_comparisons) == 1
    assert len(step.predicates) == 1


def test_trailing_comparison_on_predicate_path():
    compiled = compile_path(parse_path('//a[b/c = "1"]'))
    predicate = compiled.steps[0].predicates[0]
    assert predicate.comparison is not None
    assert [step.test.name for step in predicate.steps] == ["b", "c"]


def test_suffix_labels():
    compiled = compile_path(parse_path("/a/b//c"))
    assert compiled.suffix_labels[0] == {"a", "b", "c"}
    assert compiled.suffix_labels[1] == {"b", "c"}
    assert compiled.suffix_labels[2] == {"c"}


def test_suffix_labels_skip_wildcards():
    compiled = compile_path(parse_path("/a/*/c"))
    assert compiled.suffix_labels[1] == {"c"}


def test_state_count_includes_predicates():
    plain = compile_path(parse_path("/a/b"))
    branched = compile_path(parse_path("/a[x]/b"))
    assert branched.state_count() > plain.state_count()
