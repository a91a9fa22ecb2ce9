"""Unit tests for the comparison baselines."""

from repro.baselines.server_filter import trusted_server_query
from repro.baselines.static_encryption import StaticEncryptionScheme
from repro.bench.harness import PullSetup, run_pull_session
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.skipindex.encoder import IndexMode
from repro.workloads.docgen import agenda
from repro.workloads.rulegen import agenda_rules, owner_private_rules
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import parse_tree
from repro.xmlstream.writer import write_string

MEMBERS = ["alice", "bruno", "carla"]


def test_static_scheme_builds_classes():
    root = agenda(3, 4)
    scheme = StaticEncryptionScheme(root, agenda_rules(MEMBERS), MEMBERS)
    assert scheme.class_count >= 2  # at least "everyone" and "owner only"


def test_noop_change_costs_nothing():
    root = agenda(3, 4)
    rules = agenda_rules(MEMBERS)
    scheme = StaticEncryptionScheme(root, rules, MEMBERS)
    cost = scheme.rekey_for(rules)
    assert cost.bytes_reencrypted == 0
    assert cost.keys_redistributed == 0


def test_policy_change_forces_reencryption():
    root = agenda(3, 4, seed=13)
    scheme = StaticEncryptionScheme(root, agenda_rules(MEMBERS), MEMBERS)
    cost = scheme.rekey_for(owner_private_rules(MEMBERS))
    assert cost.nodes_reencrypted > 0
    assert cost.bytes_reencrypted > 0


def test_revocation_rotates_keys():
    root = parse_tree("<d><s>x</s></d>")
    both = RuleSet([
        AccessRule.parse("+", "a", "/d", rule_id="1"),
        AccessRule.parse("+", "b", "/d", rule_id="2"),
    ])
    only_a = RuleSet([AccessRule.parse("+", "a", "/d", rule_id="1")])
    scheme = StaticEncryptionScheme(root, both, ["a", "b"])
    cost = scheme.rekey_for(only_a)
    # b was revoked: every node changes class, and the surviving reader
    # must receive fresh keys.
    assert cost.nodes_reencrypted == 2
    assert cost.keys_redistributed >= 1


def test_server_filter_matches_oracle():
    root = parse_tree("<a><b>1</b><c>2</c></a>")
    rules = RuleSet([AccessRule.parse("+", "u", "//b", rule_id="1")])
    view, clock = trusted_server_query(root, rules, "u")
    assert view == write_string(reference_view(root, rules, "u"))
    assert clock.component("network") > 0


def test_full_decrypt_baseline_runs_and_matches():
    document = "<r><a>x</a><hidden>y</hidden></r>"
    rules = RuleSet([
        AccessRule.parse("+", "u", "/r", rule_id="1"),
        AccessRule.parse("-", "u", "//hidden", rule_id="2"),
    ])
    outcome = run_pull_session(PullSetup(
        events=parse_string(document),
        rules=rules,
        subject="u",
        index_mode=IndexMode.NONE,
    ))
    expected = write_string(reference_view(parse_tree(document), rules, "u"))
    assert outcome.xml == expected
    assert outcome.metrics.bytes_skipped == 0
