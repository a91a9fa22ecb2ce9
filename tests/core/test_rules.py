"""Unit tests for the access-rule model."""

import hashlib
import random

import pytest

from repro.core.rules import AccessRule, RuleSet, Sign, Subject
from repro.xpathlib.ast import Path
from repro.xpathlib.parser import parse_path


def test_sign_values():
    assert Sign("+") is Sign.PERMIT
    assert Sign("-") is Sign.DENY
    assert str(Sign.PERMIT) == "+"


def test_rule_parse_and_str():
    rule = AccessRule.parse("+", "doctor", "//patient", rule_id="R1")
    assert rule.sign is Sign.PERMIT
    assert str(rule) == "<+, doctor, //patient>"


def test_rule_ids_autogenerated_unique():
    a = AccessRule.parse("+", "u", "/a")
    b = AccessRule.parse("+", "u", "/a")
    assert a.rule_id != b.rule_id


def test_rule_rejects_relative_object():
    with pytest.raises(Exception):
        AccessRule(Sign.PERMIT, "u", parse_path("//a[b]").steps[0].predicates[0].path, "X")


def test_subject_covers_groups():
    subject = Subject("alice", frozenset({"staff", "admins"}))
    assert subject.covers("alice")
    assert subject.covers("staff")
    assert not subject.covers("bob")


def test_ruleset_for_subject():
    rules = RuleSet([
        AccessRule.parse("+", "alice", "/a", rule_id="1"),
        AccessRule.parse("-", "staff", "/b", rule_id="2"),
        AccessRule.parse("+", "bob", "/c", rule_id="3"),
    ])
    mine = rules.for_subject(Subject("alice", frozenset({"staff"})))
    assert [rule.rule_id for rule in mine] == ["1", "2"]
    assert len(rules.for_subject("bob")) == 1


def test_ruleset_add_remove():
    rules = RuleSet()
    rules.add(AccessRule.parse("+", "u", "/a", rule_id="r"))
    assert len(rules) == 1
    with pytest.raises(ValueError):
        rules.add(AccessRule.parse("-", "u", "/b", rule_id="r"))
    removed = rules.remove("r")
    assert removed.rule_id == "r"
    with pytest.raises(KeyError):
        rules.remove("r")


def test_ruleset_rejects_duplicate_ids_at_construction():
    rule = AccessRule.parse("+", "u", "/a", rule_id="dup")
    with pytest.raises(ValueError):
        RuleSet([rule, rule])


def test_label_set_union():
    rules = RuleSet([
        AccessRule.parse("+", "u", "//a[b]", rule_id="1"),
        AccessRule.parse("-", "u", "/c//d", rule_id="2"),
    ])
    assert rules.label_set() == {"a", "b", "c", "d"}


def test_signs_tuple():
    rules = RuleSet([
        AccessRule.parse("+", "u", "/a", rule_id="1"),
        AccessRule.parse("-", "u", "/b", rule_id="2"),
    ])
    assert rules.signs() == (Sign.PERMIT, Sign.DENY)


def _scratch_fingerprint(rules) -> str:
    """The fingerprint recomputed from nothing: length-prefixed
    ``sign, subject, object`` fields of every rule, in order."""
    digest = hashlib.sha1()
    for rule in rules:
        for part in (str(rule.sign), rule.subject, str(rule.object)):
            data = part.encode("utf-8")
            digest.update(len(data).to_bytes(4, "big"))
            digest.update(data)
    return digest.hexdigest()


def test_running_digest_matches_scratch_recomputation():
    """Mixed add/remove churn: the running digest always agrees with a
    from-scratch hash."""
    rng = random.Random(7)
    paths = ["/a", "//b", "/a/c", "//d[e]", "/a//f"]
    rules = RuleSet()
    for step in range(120):
        ids = [rule.rule_id for rule in rules]
        if ids and rng.random() < 0.4:
            rules.remove(rng.choice(ids))
        else:
            rules.add(
                AccessRule.parse(
                    rng.choice("+-"),
                    rng.choice(["u", "v"]),
                    rng.choice(paths),
                    rule_id=f"r{step}",
                )
            )
        assert rules.fingerprint() == _scratch_fingerprint(rules)


def test_adding_n_rules_renders_each_path_once(monkeypatch):
    renders = []
    original = Path.__str__

    def counting(path):
        renders.append(path)
        return original(path)

    monkeypatch.setattr(Path, "__str__", counting)
    rules = RuleSet()
    objects = [parse_path(f"/doc/item{i}//x") for i in range(18)]
    for index, path in enumerate(objects):
        rules.add(AccessRule(Sign.PERMIT, "u", path, f"r{index}"))
        rules.fingerprint()
    assert len(renders) == len(objects)
    assert {id(path) for path in renders} == {id(path) for path in objects}
