"""Unit tests for conflict resolution (the sign stack)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import Condition, Tristate, conjunction_state
from repro.core.decisions import DecisionNode, Pending, Resolved
from repro.core.rules import Sign


def _root(sign=Sign.DENY):
    return DecisionNode.default_root(sign)


def test_default_root_status():
    assert _root(Sign.DENY).status() == Resolved(Sign.DENY)
    assert _root(Sign.PERMIT).status() == Resolved(Sign.PERMIT)


def test_inherits_from_parent_without_matches():
    child = DecisionNode(_root(Sign.PERMIT))
    assert child.status() == Resolved(Sign.PERMIT)


def test_definite_permit():
    node = DecisionNode(_root())
    node.add_match(Sign.PERMIT, frozenset())
    assert node.status() == Resolved(Sign.PERMIT)


def test_denial_takes_precedence_among_direct_matches():
    node = DecisionNode(_root(Sign.PERMIT))
    node.add_match(Sign.PERMIT, frozenset())
    node.add_match(Sign.DENY, frozenset())
    assert node.status() == Resolved(Sign.DENY)


def test_most_specific_overrides_propagation():
    parent = DecisionNode(_root())
    parent.add_match(Sign.DENY, frozenset())
    child = DecisionNode(parent)
    child.add_match(Sign.PERMIT, frozenset())
    assert parent.status() == Resolved(Sign.DENY)
    assert child.status() == Resolved(Sign.PERMIT)


def test_pending_permit_blocks_resolution():
    condition = Condition(1)
    node = DecisionNode(_root())
    node.add_match(Sign.PERMIT, frozenset({condition}))
    status = node.status()
    assert isinstance(status, Pending)
    assert status.unknowns == frozenset({condition})


def test_pending_permit_confirms():
    condition = Condition(1)
    node = DecisionNode(_root())
    node.add_match(Sign.PERMIT, frozenset({condition}))
    condition.add_support(frozenset())
    assert node.status() == Resolved(Sign.PERMIT)


def test_pending_permit_fails_back_to_parent():
    condition = Condition(1)
    node = DecisionNode(_root(Sign.DENY))
    node.add_match(Sign.PERMIT, frozenset({condition}))
    condition.finalize()
    assert node.status() == Resolved(Sign.DENY)


def test_pending_deny_outweighs_definite_permit_until_resolved():
    condition = Condition(1)
    node = DecisionNode(_root())
    node.add_match(Sign.PERMIT, frozenset())
    node.add_match(Sign.DENY, frozenset({condition}))
    assert isinstance(node.status(), Pending)
    condition.finalize()
    assert node.status() == Resolved(Sign.PERMIT)


def test_confirmed_pending_deny_wins():
    condition = Condition(1)
    node = DecisionNode(_root())
    node.add_match(Sign.PERMIT, frozenset())
    node.add_match(Sign.DENY, frozenset({condition}))
    condition.add_support(frozenset())
    assert node.status() == Resolved(Sign.DENY)


def test_definite_deny_short_circuits_pending():
    condition = Condition(1)
    node = DecisionNode(_root())
    node.add_match(Sign.DENY, frozenset())
    node.add_match(Sign.PERMIT, frozenset({condition}))
    assert node.status() == Resolved(Sign.DENY)


def test_failed_match_never_recorded():
    condition = Condition(1)
    condition.finalize()
    node = DecisionNode(_root(Sign.PERMIT))
    node.add_match(Sign.DENY, frozenset({condition}))
    assert node.status() == Resolved(Sign.PERMIT)
    # Nor a failed permission: the node follows its parent either way.
    node = DecisionNode(_root(Sign.DENY), [(Sign.PERMIT, frozenset({condition}))])
    assert node.status() == Resolved(Sign.DENY)


def test_pending_inheritance_through_chain():
    condition = Condition(1)
    grandparent = DecisionNode(_root())
    grandparent.add_match(Sign.PERMIT, frozenset({condition}))
    parent = DecisionNode(grandparent)
    child = DecisionNode(parent)
    status = child.status()
    assert isinstance(status, Pending)
    condition.add_support(frozenset())
    assert child.status() == Resolved(Sign.PERMIT)


#: One step of a random session: open a child of a random node (an
#: index into the nodes so far) with direct matches over a pool of four
#: conditions, or resolve a pool condition TRUE or FALSE.
_MATCHES = st.lists(
    st.tuples(
        st.sampled_from([Sign.PERMIT, Sign.DENY]),
        st.frozensets(st.integers(min_value=0, max_value=3), max_size=2),
    ),
    max_size=3,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(min_value=0), _MATCHES),
        st.tuples(
            st.just("resolve"), st.integers(min_value=0, max_value=3), st.booleans()
        ),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(default=st.sampled_from([Sign.PERMIT, Sign.DENY]), steps=_STEPS)
def test_status_is_monotone_and_fallback_nodes_follow_their_parent(default, steps):
    """The two facts the delivery engine's pending path rests on: a
    status never changes once it is :class:`Resolved` (so it may be
    memoized), and a node without direct matches reports its parent's
    status at every moment (so it may share its parent's resolution)."""
    pool = [Condition(depth=1) for __ in range(4)]
    nodes = [_root(default)]
    parents: list[DecisionNode | None] = [None]
    #: Whether each node recorded a direct match: one whose conditions
    #: had not already failed when it was added.
    recorded = [True]
    settled: dict[int, Resolved] = {}

    def check() -> None:
        for index, node in enumerate(nodes):
            status = node.status()
            if index in settled:
                assert status == settled[index]
            elif isinstance(status, Resolved):
                settled[index] = status
            if not recorded[index]:
                assert status == parents[index].status()

    for step in steps:
        if step[0] == "open":
            __, at, matches = step
            parent = nodes[at % len(nodes)]
            node = DecisionNode(parent)
            alive = False
            for sign, members in matches:
                conditions = frozenset(pool[i] for i in members)
                alive |= conjunction_state(conditions) is not Tristate.FALSE
                node.add_match(sign, conditions)
            nodes.append(node)
            parents.append(parent)
            recorded.append(alive)
        else:
            __, which, outcome = step
            condition = pool[which]
            if outcome:
                condition.add_support(frozenset())
            else:
                condition.finalize()
        check()
    for condition in pool:
        condition.finalize()
    check()
    # Once every condition has resolved, every node has.
    assert all(isinstance(node.status(), Resolved) for node in nodes)
