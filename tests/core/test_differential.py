"""Differential testing: streaming engine vs. the tree-based oracle.

This is the central correctness property of the whole reproduction: on
*any* document and *any* rule set in the supported fragment, the
streaming evaluator inside the card must produce exactly the authorized
view computed by a direct reading of the paper's semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import authorized_view, reference_view
from repro.core.delivery import ViewMode
from repro.core.rules import AccessRule, RuleSet, Sign
from repro.xmlstream.events import OpenEvent
from repro.xmlstream.tree import parse_tree, tree_to_events
from repro.xmlstream.writer import write_string

from tests.strategies import elements, rule_sets, xpath_texts


@settings(max_examples=300, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_streaming_matches_oracle_skeleton(root, rules):
    out = authorized_view(tree_to_events(root), rules, "u")
    ref = reference_view(root, rules, "u")
    assert out == ref, (
        f"doc={write_string(tree_to_events(root))!r} rules=\n{rules}\n"
        f"stream={write_string(out)!r}\noracle={write_string(ref)!r}"
    )


@settings(max_examples=200, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_streaming_matches_oracle_prune(root, rules):
    out = authorized_view(tree_to_events(root), rules, "u", mode=ViewMode.PRUNE)
    ref = reference_view(root, rules, "u", mode=ViewMode.PRUNE)
    assert out == ref


@settings(max_examples=200, deadline=None)
@given(root=elements(), rules=rule_sets(), query=xpath_texts())
def test_streaming_matches_oracle_with_query(root, rules, query):
    out = authorized_view(tree_to_events(root), rules, "u", query=query)
    ref = reference_view(root, rules, "u", query=query)
    assert out == ref


@settings(max_examples=150, deadline=None)
@given(root=elements(), rules=rule_sets(), default=st.sampled_from(list(Sign)))
def test_streaming_matches_oracle_default_sign(root, rules, default):
    out = authorized_view(tree_to_events(root), rules, "u", default=default)
    ref = reference_view(root, rules, "u", default=default)
    assert out == ref


@settings(max_examples=150, deadline=None)
@given(root=elements(), rules=rule_sets())
def test_output_is_projection_of_input(root, rules):
    """Every delivered element path exists in the input document."""
    from repro.xmlstream.events import events_to_paths

    out = authorized_view(tree_to_events(root), rules, "u")
    input_paths = list(events_to_paths(tree_to_events(root)))
    output_paths = list(events_to_paths(out))
    remaining = list(input_paths)
    for path in output_paths:
        assert path in remaining, f"path {path} not in input (or duplicated)"
        remaining.remove(path)


@pytest.mark.parametrize("mode", list(ViewMode))
def test_streaming_matches_oracle_on_a_chain_deeper_than_the_recursion_limit(mode):
    """The oracle walks the 1,200-deep chain ``parse_tree`` accepts; every
    third element is a denied ``s`` whose ``n`` child is permitted again
    (Most-Specific-Object), so skeletons and pruning both show."""
    depth = 1200
    tags = ["s" if level % 3 == 2 else "n" for level in range(depth)]
    root = parse_tree(
        "".join(f"<{tag}>" for tag in tags) + "x"
        + "".join(f"</{tag}>" for tag in reversed(tags))
    )
    rules = RuleSet([
        AccessRule.parse("+", "u", "//n", rule_id="P"),
        AccessRule.parse("-", "u", "//s", rule_id="D"),
    ])
    ref = reference_view(root, rules, "u", mode=mode)
    assert authorized_view(tree_to_events(root), rules, "u", mode=mode) == ref
    # 800 delivered ``n``; in SKELETON the 399 ``s`` above them too (the
    # deepest ``s`` holds only its denied text and vanishes).
    kept = {ViewMode.SKELETON: 1199, ViewMode.PRUNE: 800}[mode]
    assert sum(isinstance(event, OpenEvent) for event in ref) == kept
