"""Tests for the compile-once / evaluate-many layer.

Covers: registry cache hit/miss and LRU behavior, misses under policy
churn (the E8 scenario) and the LRU bound under in-place churn, differential equality of the
CompiledPolicy-driven paths against the legacy constructor path on the
``workloads/docgen`` corpus, and the zero-recompile guarantee for
repeated :class:`AccessController` construction.
"""

import pytest

from repro.core.compiled import (
    AUTOMATON_STATE_BYTES,
    PolicyRegistry,
    compile_policy,
    compile_query,
)
from repro.core.multicast import MultiSubjectEvaluator, multicast_views
from repro.core.nfa import compile_call_count, compile_path
from repro.core.pipeline import AccessController, authorized_view
from repro.core.reference import reference_view
from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.core.runtime import EngineStats
from repro.workloads.docgen import agenda, hospital, video_catalog, _CATEGORIES
from repro.workloads.rulegen import (
    agenda_rules,
    hospital_rules,
    owner_private_rules,
    parental_rules,
    subscription_rules,
)
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string
from repro.xpathlib.parser import parse_path

MEMBERS = ["alice", "bruno", "carla", "deng"]


def _view(events, rules, subject, **kwargs):
    return write_string(authorized_view(events, rules, subject, **kwargs))


# -- CompiledPolicy ----------------------------------------------------------


def test_compile_policy_filters_subject():
    rules = hospital_rules()
    policy = compile_policy(rules, "doctor")
    doctor_rules = rules.for_subject("doctor")
    assert len(policy) == len(doctor_rules)
    assert policy.signs == doctor_rules.signs()
    assert policy.default is Sign.DENY


def test_compile_policy_state_count_and_ram():
    rules = RuleSet([AccessRule.parse("+", "u", "//a[b]/c", rule_id="X0")])
    policy = compile_policy(rules, "u")
    expected = sum(path.state_count() for path in policy.automata)
    assert policy.state_count == expected > 0
    assert policy.ram_bytes == expected * AUTOMATON_STATE_BYTES


def test_fingerprint_resists_separator_injection():
    """Field framing is length-prefixed: separator characters inside a
    subject or object cannot collide with a differently-split policy."""
    plain = RuleSet([
        AccessRule.parse("+", "s1", "/a", rule_id="N0"),
        AccessRule.parse("+", "s2", "/b", rule_id="N1"),
    ])
    forged = RuleSet([
        AccessRule.parse("+", "s1|/a\n+|s2", "/b", rule_id="N2"),
    ])
    assert plain.fingerprint() != forged.fingerprint()


def test_fingerprint_memo_invalidated_by_mutation():
    rules = RuleSet([AccessRule.parse("+", "u", "//a", rule_id="M0")])
    first = rules.fingerprint()
    assert rules.fingerprint() == first  # memoized
    rules.add(AccessRule.parse("-", "u", "//b", rule_id="M1"))
    changed = rules.fingerprint()
    assert changed != first
    rules.remove("M1")
    assert rules.fingerprint() == first


def test_fingerprint_ignores_rule_ids():
    a = RuleSet([AccessRule.parse("+", "u", "//a", rule_id="R_one")])
    b = RuleSet([AccessRule.parse("+", "u", "//a", rule_id="other")])
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_changes_on_churn():
    rules = RuleSet([AccessRule.parse("+", "u", "//a", rule_id="C0")])
    before = rules.fingerprint()
    rules.add(AccessRule.parse("-", "u", "//a/b", rule_id="C1"))
    after = rules.fingerprint()
    assert before != after
    rules.remove("C1")
    assert rules.fingerprint() == before


# -- PolicyRegistry ----------------------------------------------------------


def test_registry_hit_and_miss():
    registry = PolicyRegistry()
    rules = hospital_rules()
    first = registry.get(rules, "doctor")
    second = registry.get(rules, "doctor")
    assert first is second
    assert registry.stats.misses == 1
    assert registry.stats.hits == 1
    # A different subject is a different entry.
    registry.get(rules, "nurse")
    assert registry.stats.misses == 2


def test_registry_zero_compiles_after_first():
    registry = PolicyRegistry()
    rules = hospital_rules()
    registry.get(rules, "doctor")
    before = compile_call_count()
    registry.get(rules, "doctor")
    registry.get(rules, "doctor")
    assert compile_call_count() == before


def test_registry_distinguishes_default_sign():
    registry = PolicyRegistry()
    rules = hospital_rules()
    closed = registry.get(rules, "doctor", Sign.DENY)
    open_world = registry.get(rules, "doctor", Sign.PERMIT)
    assert closed is not open_world
    assert closed.default is Sign.DENY
    assert open_world.default is Sign.PERMIT


def test_registry_subject_groups_are_part_of_the_key():
    registry = PolicyRegistry()
    rules = hospital_rules()
    plain = registry.get(rules, Subject("kim"))
    with_group = registry.get(rules, Subject("kim", frozenset({"doctor"})))
    assert plain is not with_group
    assert len(with_group) > len(plain)


def test_registry_lru_eviction():
    registry = PolicyRegistry(capacity=2)
    rules = hospital_rules()
    registry.get(rules, "doctor")
    registry.get(rules, "nurse")
    registry.get(rules, "doctor")  # refresh doctor
    registry.get(rules, "accountant")  # evicts nurse (LRU)
    assert registry.stats.evictions == 1
    registry.get(rules, "doctor")
    assert registry.stats.hits == 2  # doctor survived
    registry.get(rules, "nurse")
    assert registry.stats.misses == 4  # nurse was recompiled


def test_registry_misses_on_policy_churn():
    """Reuses the E8 policy-churn scenario: content addressing alone
    answers churn -- a revision that changes a subject's effective
    rights misses, one that leaves them alone hits."""
    registry = PolicyRegistry()
    base = agenda_rules(MEMBERS)
    for member in MEMBERS:
        registry.get(base, member)
    assert len(registry) == len(MEMBERS)
    assert registry.stats.misses == len(MEMBERS)
    # "hide all private": every member's effective policy changes.
    opaque = owner_private_rules(MEMBERS)
    for member in MEMBERS:
        registry.get(opaque, member)
    assert registry.stats.misses == 2 * len(MEMBERS)
    # "revoke deng": the other members' effective rights are untouched,
    # so their compiled automata are shared across generations; only
    # deng (now an empty policy) compiles anew.
    revoked = agenda_rules([m for m in MEMBERS if m != "deng"])
    for member in MEMBERS:
        registry.get(revoked, member)
    assert registry.stats.hits == len(MEMBERS) - 1
    assert registry.stats.misses == 2 * len(MEMBERS) + 1


def test_registry_in_place_churn_compiles_the_new_policy():
    """A rule set mutated in place after a ``get`` fingerprints anew,
    so the next ``get`` compiles the new policy, never the stale one."""
    registry = PolicyRegistry()
    root = hospital(n_patients=3)
    events = list(tree_to_events(root))
    rules = hospital_rules()
    before = registry.get(rules, "doctor")
    assert "<diagnosis>" in _view(events, rules, "doctor", registry=registry)
    rules.add(AccessRule.parse("-", "doctor", "//diagnosis", rule_id="IP0"))
    compiles = compile_call_count()
    after = registry.get(rules, "doctor")
    assert after is not before
    assert compile_call_count() > compiles
    via_registry = _view(events, rules, "doctor", registry=registry)
    assert via_registry == write_string(reference_view(root, rules, "doctor"))
    assert "<diagnosis>" not in via_registry


def test_registry_stays_bounded_under_churn():
    """In-place churn leaves superseded generations behind; the LRU
    bound, not an eviction call, caps what stays."""
    registry = PolicyRegistry(capacity=4)
    rules = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="B0")])
    for generation in range(50):
        rules.add(AccessRule.parse("-", "u", f"/r/g{generation}", rule_id=f"B{generation + 1}"))
        registry.get(rules, "u")
        assert len(registry) <= 4
    assert registry.stats.misses == 50
    assert registry.stats.evictions == 46


def test_registry_shares_identical_effective_policies():
    """Two subjects with the same effective rights (same tier) share
    ONE cache entry and the very same compiled automata objects."""
    registry = PolicyRegistry()
    rules = RuleSet([
        AccessRule.parse("+", "tier-1", "/stream/news", rule_id="T0"),
        AccessRule.parse("-", "tier-1", "//adult", rule_id="T1"),
    ])
    alice = registry.get(rules, Subject("alice", frozenset({"tier-1"})))
    bob = registry.get(rules, Subject("bob", frozenset({"tier-1"})))
    assert alice is bob
    assert registry.stats.hits == 1 and registry.stats.misses == 1


def test_registry_query_cache():
    registry = PolicyRegistry()
    by_text = registry.get_query("//a[b]/c")
    again = registry.get_query("//a[b]/c")
    assert by_text is again
    assert registry.stats.query_misses == 1
    assert registry.stats.query_hits == 1
    before = compile_call_count()
    registry.get_query("//a[b]/c")
    assert compile_call_count() == before
    # A query is a one-rule policy: PERMIT on its subtrees, default DENY.
    assert len(by_text) == 1
    assert by_text.signs == (Sign.PERMIT,)
    assert by_text.default is Sign.DENY
    path = compile_path(parse_path("//a[b]/c"))
    assert by_text.state_count == path.state_count() > 0
    # Its fingerprint comes from the query text, not object identity.
    assert compile_query("//a[b]/c").fingerprint == by_text.fingerprint
    assert compile_query("//a[b]/d").fingerprint != by_text.fingerprint
    assert registry.get_query(parse_path("//a[b]/c")) is by_text


# -- AccessController through the registry ------------------------------------


def test_controller_zero_recompiles_after_first():
    registry = PolicyRegistry()
    rules = hospital_rules()
    AccessController(rules, "doctor", registry=registry)
    before = compile_call_count()
    for __ in range(5):
        AccessController(rules, "doctor", registry=registry)
    assert compile_call_count() == before


def test_controller_accepts_prebuilt_policy():
    events = list(tree_to_events(hospital(n_patients=3)))
    rules = hospital_rules()
    policy = compile_policy(rules, "doctor")
    legacy = _view(events, rules, "doctor")
    assert _view(events, policy, None) == legacy
    before = compile_call_count()
    controller = AccessController(policy)
    assert compile_call_count() == before
    assert controller.compiled_policy is policy


def test_evaluator_from_compiled_matches_for_policy():
    rules = hospital_rules()
    policy = compile_policy(rules, "accountant")
    doc = parse_string(
        "<hospital><patient><name>n</name>"
        "<billing><amount>5</amount></billing></patient></hospital>"
    )
    def run(controller):
        signs = []
        for event in doc:
            controller.feed(event)
            auth, __ = controller.current_decision_nodes()
            signs.append(str(auth.status()))
        return signs

    legacy = run(AccessController(rules, "accountant"))
    compiled = run(AccessController(policy))
    assert legacy == compiled


def test_repeated_query_sessions_intern_nothing():
    """Sessions through one registry share the cached policy's and the
    cached query's tables: the second interns no product state, and
    every modeled counter and the view are unchanged."""
    registry = PolicyRegistry()
    rules = hospital_rules()
    events = list(tree_to_events(hospital(n_patients=3)))
    modeled = ("events", "token_checks", "token_advances",
               "conditions_created", "watcher_bytes")
    runs = []
    for __ in range(2):
        stats = EngineStats()
        controller = AccessController(
            rules, "accountant", query="//patient[billing]/name",
            registry=registry, stats=stats,
        )
        output = []
        for event in events:
            output.extend(controller.feed(event))
        output.extend(controller.finish())
        runs.append((stats, write_string(output)))
    (cold, first), (warm, second) = runs
    assert registry.stats.query_misses == 1 and registry.stats.query_hits == 1
    assert cold.product_states_interned > 0
    assert warm.product_states_interned == 0
    assert [getattr(warm, n) for n in modeled] == [
        getattr(cold, n) for n in modeled
    ]
    assert second == first and "<name>" in first


# -- differential: compiled vs legacy on the docgen corpus --------------------

CORPUS = [
    (hospital(n_patients=4), hospital_rules(),
     ["doctor", "nurse", "accountant", "researcher"]),
    (agenda(3, 4), agenda_rules(MEMBERS), MEMBERS),
    (video_catalog(12), subscription_rules("sub", _CATEGORIES[:2]), ["sub"]),
    (video_catalog(8), parental_rules("kid", "PG"), ["kid"]),
]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_differential_compiled_equals_legacy(index):
    """CompiledPolicy-driven evaluation is byte-identical to the legacy
    constructor path, for every docgen workload and subject."""
    root, rules, subjects = CORPUS[index]
    events = list(tree_to_events(root))
    registry = PolicyRegistry()
    for subject in subjects:
        legacy = _view(events, rules, subject)
        via_registry = _view(events, rules, subject, registry=registry)
        via_policy = _view(events, compile_policy(rules, subject), None)
        assert via_registry == legacy
        assert via_policy == legacy
        # Second run through the registry: cached automata, same bytes.
        assert _view(events, rules, subject, registry=registry) == legacy


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_differential_multicast_equals_per_subject(index):
    """One shared pass produces the same bytes as N independent passes."""
    root, rules, subjects = CORPUS[index]
    events = list(tree_to_events(root))
    registry = PolicyRegistry()
    views = multicast_views(events, rules, subjects, registry=registry)
    assert set(views) == set(subjects)
    for subject in subjects:
        assert write_string(views[subject]) == _view(events, rules, subject)


def test_multicast_shared_policy_lanes_stay_independent():
    """Two lanes sharing ONE CompiledPolicy object (registry hit) must
    both receive their matches -- the token dedupe is per sink."""
    rules = RuleSet([AccessRule.parse("+", "u", "//a[b]/c", rule_id="S0")])
    events = parse_string("<r><a><b>1</b><c>yes</c></a><a><c>no</c></a></r>")
    policy = compile_policy(rules, "u")
    evaluator = MultiSubjectEvaluator([policy, policy])
    outputs = [[] for __ in range(2)]
    for event in events:
        for output, released in zip(outputs, evaluator.feed(event)):
            output.extend(released)
    for output, released in zip(outputs, evaluator.finish()):
        output.extend(released)
    expected = _view(events, rules, "u")
    assert write_string(outputs[0]) == expected
    assert write_string(outputs[1]) == expected


def test_multicast_views_empty_audience_and_duplicate_names():
    rules = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="D0")])
    events = parse_string("<r></r>")
    assert multicast_views(events, rules, []) == {}
    with pytest.raises(ValueError, match="duplicate subject"):
        multicast_views(events, rules, ["u", Subject("u")])


def test_controller_rejects_conflicts_with_prebuilt_policy():
    rules = RuleSet([AccessRule.parse("+", "u", "/r", rule_id="F0")])
    policy = compile_policy(rules, "u", Sign.DENY)
    with pytest.raises(ValueError, match="subject is baked"):
        AccessController(policy, subject="other")
    with pytest.raises(ValueError, match="conflicts"):
        AccessController(policy, default=Sign.PERMIT)
    # Matching explicit default is fine.
    AccessController(policy, default=Sign.DENY)


def test_multicast_rejects_empty_and_unbalanced():
    with pytest.raises(ValueError):
        MultiSubjectEvaluator([])
    policy = compile_policy(
        RuleSet([AccessRule.parse("+", "u", "/r", rule_id="E0")]), "u"
    )
    evaluator = MultiSubjectEvaluator([policy])
    evaluator.feed(parse_string("<r></r>")[0])
    with pytest.raises(ValueError):
        evaluator.finish()


# -- card-level amortization ---------------------------------------------------


def test_applet_second_session_compiles_nothing():
    """Repeated sessions with the same policy on one card hit the
    applet's registry: zero compile_path calls after the first."""
    from repro.bench.harness import PullSetup, run_pull_session

    events = list(tree_to_events(hospital(n_patients=2)))
    registry = PolicyRegistry()
    setup = PullSetup(
        events=events,
        rules=hospital_rules(),
        subject="doctor",
        registry=registry,
    )
    first = run_pull_session(setup)
    before = compile_call_count()
    second = run_pull_session(setup)
    assert compile_call_count() == before
    assert second.xml == first.xml
    assert registry.stats.hits >= 1
