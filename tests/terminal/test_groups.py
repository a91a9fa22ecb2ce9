"""Role/group subjects through the full card protocol."""

from repro.community import Community
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet, Subject
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import hospital_rules
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string


def _query(rules, doc_root, groups=frozenset()):
    """Martin's view of the published document, holding ``groups``."""
    community = Community()
    owner = community.enroll("owner")
    martin = community.enroll("martin")
    doc = owner.publish(
        tree_to_events(doc_root), rules, to=[martin], doc_id="med"
    )
    with martin.open(doc, groups=groups) as session:
        return session.query().text()


def test_user_with_role_gets_role_rules():
    root = hospital(8)
    rules = hospital_rules()
    xml = _query(rules, root, frozenset({"doctor"}))
    expected = write_string(
        reference_view(root, rules, Subject("martin", frozenset({"doctor"})))
    )
    assert xml == expected
    assert "<diagnosis>" in xml
    assert "<psychiatric>" not in xml


def test_user_without_role_sees_nothing():
    root = hospital(8)
    rules = hospital_rules()
    xml = _query(rules, root)
    assert xml == ""


def test_multiple_roles_combine():
    """Rules for every held role apply together -- with the usual
    conflict resolution across them."""
    root = hospital(8)
    rules = hospital_rules()
    xml = _query(rules, root, frozenset({"doctor", "accountant"}))
    expected = write_string(
        reference_view(
            root, rules, Subject("martin", frozenset({"doctor", "accountant"}))
        )
    )
    assert xml == expected
    # The doctor's deny on billing and the accountant's permit on it
    # collide on the same nodes: denial takes precedence.
    assert "<amount>" not in xml


def test_personal_rule_plus_role():
    root = hospital(8)
    rules = RuleSet(
        list(hospital_rules())
        + [AccessRule.parse("+", "martin", "//ssn", rule_id="ME")]
    )
    xml = _query(rules, root, frozenset({"nurse"}))
    expected = write_string(
        reference_view(root, rules, Subject("martin", frozenset({"nurse"})))
    )
    assert xml == expected
    assert "<ssn>" in xml  # personal grant
    assert "<prescription>" in xml  # role grant
