"""The delivery engine against its frozen hole-based reference, event by event.

``tests/core/delivery_reference.py`` keeps the delivery engine that
re-settled the whole root buffer on every drain, with the controller
code that drove it.  The live :class:`AccessController` must match it
after every ``feed`` call: the same released events, the same
``max_pending_bytes`` and the same meter readings (``used``, the
``pending`` pool and ``high_water``) -- so the pending RAM is charged
and released at the same events -- and ``finish()`` must release the
same tail.  On a strict meter both must fault at the same event with
the same :class:`CardMemoryError`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import compile_policy, compile_query
from repro.core.delivery import ViewMode
from repro.core.pipeline import AccessController
from repro.core.rules import AccessRule, RuleSet, Sign
from repro.smartcard.memory import CardMemoryError, MemoryMeter
from repro.workloads.docgen import video_catalog
from repro.workloads.rulegen import parental_rules
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string

from tests.core.delivery_reference import FrozenController
from tests.strategies import elements, rule_sets, xpath_texts

#: The three video policies the parental-control demo runs: the
#: ``parental_rules`` child and the two E20 feed tiers that go pending.
VIDEO_POLICIES = {
    "video-kid": (parental_rules("kid"), "kid", Sign.DENY),
    "video-kids-tier": (
        RuleSet([AccessRule.parse("+", "u", '//segment[meta/rating = "G"]', rule_id="K0")]),
        "u",
        Sign.DENY,
    ),
    "video-family": (
        RuleSet([
            AccessRule.parse("+", "u", "/stream", rule_id="F0"),
            AccessRule.parse("-", "u", '//segment[meta/rating = "R"]', rule_id="F1"),
        ]),
        "u",
        Sign.DENY,
    ),
}


def _pair(rules, subject, default, query, mode, quota, strict):
    """A live controller and a frozen one, each with its own compiled
    policy and its own meter."""
    sides = []
    for build in (AccessController, FrozenController):
        policy = compile_policy(rules, subject, default)
        compiled_query = compile_query(query) if query is not None else None
        meter = MemoryMeter(quota, strict=strict)
        if build is AccessController:
            controller = build(policy, query=compiled_query, mode=mode, memory=meter)
        else:
            controller = build(policy, compiled_query, mode, meter)
        sides.append((controller, meter))
    return sides


def _state(controller, meter):
    return (controller.max_pending_bytes, meter.used, meter.pending, meter.high_water)


def _run_in_lockstep(events, rules, subject="u", default=Sign.DENY, query=None,
                     mode=ViewMode.SKELETON, quota=200, strict=False):
    (live, live_meter), (frozen, frozen_meter) = _pair(
        rules, subject, default, query, mode, quota, strict
    )
    output = []
    for index, event in enumerate(events):
        released = list(live.feed(event))
        expected = list(frozen.feed(event))
        assert released == expected, f"release differs at event {index} {event!r}"
        assert _state(live, live_meter) == _state(frozen, frozen_meter), (
            f"pending accounting differs at event {index} {event!r}"
        )
        output += released
    tail = live.finish()
    assert tail == frozen.finish()
    assert _state(live, live_meter) == _state(frozen, frozen_meter)
    return output + tail


@settings(max_examples=300, deadline=None)
@given(
    root=elements(),
    rules=rule_sets(),
    default=st.sampled_from(list(Sign)),
    mode=st.sampled_from(list(ViewMode)),
)
def test_live_delivery_matches_frozen_reference(root, rules, default, mode):
    _run_in_lockstep(list(tree_to_events(root)), rules, default=default, mode=mode)


@settings(max_examples=200, deadline=None)
@given(
    root=elements(),
    rules=rule_sets(),
    query=xpath_texts(),
    mode=st.sampled_from(list(ViewMode)),
)
def test_live_delivery_matches_frozen_reference_with_query(root, rules, query, mode):
    _run_in_lockstep(list(tree_to_events(root)), rules, query=query, mode=mode)


#: Hand-built shapes the random documents rarely reach, each a
#: (document, rules) pair whose predicate on ``a`` resolves at ``z``,
#: after the pending region closed.
LATE_CASES = {
    # A denied shell at the root with plain content and an undecided
    # nested hole: it is decidable at its close.
    "shell-with-plain": (
        "<a><m><b>t</b><k>v</k></m><z/></a>",
        [("+", "/a"), ("-", "/a/m"), ("+", "/a[z]/m/b"), ("+", "/a/m/k")],
    ),
    # A denied shell holding only an undecided hole waits; the nested
    # hole's late resolution settles both.
    "waiting-shell": (
        "<a><m><b>t</b></m><m><b>u</b></m><z/></a>",
        [("+", "/a"), ("-", "/a/m"), ("+", "/a[z]/m/b")],
    ),
    # The same with the nested hole resolving to DENY: the shell's
    # contribution is empty.
    "waiting-shell-empty": (
        "<a><m><b>t</b></m><k>v</k><z/></a>",
        [("+", "/a"), ("-", "/a/m"), ("-", "/a[z]/m/b"), ("+", "/a/m/b")],
    ),
    # A permitted hole settles around an undecided nested hole, which
    # moves up into the root buffer and resolves later.
    "moved-up-hole": (
        '<a><p><q>t<r>s</r></q><w>1</w></p><z/></a>',
        [("+", "/a"), ("-", '/a/p[w = "2"]'), ("-", "/a[z]/p/q"), ("+", "//r")],
    ),
    # A denied shell holding two holes: settling the early one gives it
    # content, so it is decidable at its close though the late one is not.
    "shell-gains-content": (
        "<a><m><c>t</c><b>u</b></m><z/></a>",
        [("+", "/a"), ("-", "/a/m"), ("+", '/a/m/c[. = "t"]'), ("+", "/a[z]/m/b")],
    ),
    # Nested waiting shells: the outer waits on the inner, which waits
    # on the late hole.
    "nested-waiting-shells": (
        "<a><m><n><b>t</b></n></m><k/><z/></a>",
        [("+", "/a"), ("-", "/a/m"), ("+", "/a[z]/m/n/b")],
    ),
}


@pytest.mark.parametrize("mode", list(ViewMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", sorted(LATE_CASES))
def test_late_resolutions_match_frozen_reference(name, mode):
    document, rule_defs = LATE_CASES[name]
    rules = RuleSet([
        AccessRule.parse(sign, "u", path, rule_id=f"L{index}")
        for index, (sign, path) in enumerate(rule_defs)
    ])
    _run_in_lockstep(list(parse_string(document)), rules, mode=mode)


@pytest.mark.parametrize("mode", list(ViewMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("name", sorted(VIDEO_POLICIES))
def test_video_policies_match_frozen_reference(name, mode):
    rules, subject, default = VIDEO_POLICIES[name]
    events = list(tree_to_events(video_catalog(16)))
    view = _run_in_lockstep(events, rules, subject, default, mode=mode, quota=None)
    assert write_string(view)  # every policy delivers something


@pytest.mark.parametrize("query", [None, "//segment"])
def test_video_policies_match_with_a_query(query):
    rules, subject, default = VIDEO_POLICIES["video-family"]
    events = list(tree_to_events(video_catalog(16)))
    _run_in_lockstep(events, rules, subject, default, query=query, quota=None)


def _fault(controller, events):
    """(event index, requested, used, quota) of the first strict fault."""
    for index, event in enumerate(events):
        try:
            controller.feed(event)
        except CardMemoryError as error:
            return index, error.requested, error.used, error.quota
    return None


def test_strict_meter_faults_at_the_same_event():
    """The kid's pending buffers overflow a strict meter the same way."""
    rules, subject, default = VIDEO_POLICIES["video-kid"]
    events = list(tree_to_events(video_catalog(16)))
    (live, _), (frozen, _) = _pair(rules, subject, default, None, ViewMode.SKELETON,
                                   STRICT_QUOTA, True)
    fault = _fault(frozen, events)
    assert fault is not None and frozen._memory.pending > 0
    assert _fault(live, events) == fault


#: Below the kid's 401 B RAM peak on ``video_catalog(16)``: the meter
#: faults on a payload text charged to the pending pool.
STRICT_QUOTA = 350
