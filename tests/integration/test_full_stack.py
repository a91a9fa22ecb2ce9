"""Full-architecture integration scenarios (Figure 3 end to end)."""

from repro.community import Community
from repro.core import reference_view
from repro.core.rules import AccessRule, RuleSet
from repro.smartcard.applet import PendingStrategy
from repro.workloads.docgen import agenda, hospital
from repro.workloads.rulegen import agenda_rules, hospital_rules
from repro.xmlstream.events import events_to_paths
from repro.xmlstream.parser import parse_string
from repro.xmlstream.tree import tree_to_events
from repro.xmlstream.writer import write_string


MEMBERS = ["alice", "bruno", "carla"]


def _community():
    community = Community()
    owner = community.enroll("owner")
    for member in MEMBERS:
        community.enroll(member)
    return community, owner


def _pull(community, member, doc_id, subject=None, **kwargs):
    """One buffered pull through ``member``'s card (unlocking first)."""
    reader = community.member(member)
    reader.unlock(doc_id, "owner")
    return reader.proxy.query(doc_id, subject or member, **kwargs)


def test_collaborative_community_scenario():
    """Demo application 1: a community shares an agenda via the DSP."""
    community, owner = _community()
    root = agenda(3, 5)
    rules = agenda_rules(MEMBERS)
    owner.publish(tree_to_events(root), rules, to=MEMBERS, doc_id="agenda")
    for member in MEMBERS:
        outcome = _pull(community, member, "agenda")
        expected = write_string(reference_view(root, rules, member))
        assert outcome.xml == expected
        assert outcome.metrics.ram_high_water <= 1024


def test_dynamic_policy_evolution_cycle():
    """Publish, query, tighten policy, re-query -- no re-encryption."""
    community, owner = _community()
    root = agenda(3, 5)
    doc = owner.publish(
        tree_to_events(root), agenda_rules(MEMBERS), to=MEMBERS,
        doc_id="agenda",
    )
    store = community.store
    bytes_before = store.get("agenda").container.stored_size
    _pull(community, "bruno", "agenda")
    tightened = RuleSet(
        [
            AccessRule.parse("+", "bruno", "/agenda", rule_id="T0"),
            AccessRule.parse("-", "bruno", "//participants", rule_id="T1"),
            AccessRule.parse("-", "bruno", "//private", rule_id="T2"),
        ]
    )
    receipt = doc.update_rules(tightened)
    assert receipt.document_bytes_encrypted == 0
    assert store.get("agenda").container.stored_size == bytes_before
    second = _pull(community, "bruno", "agenda")
    expected = write_string(reference_view(root, tightened, "bruno"))
    assert second.xml == expected
    assert "<participant>" not in second.xml


def test_strict_1kb_card_completes_hospital_session():
    """The paper's hard constraint: the whole evaluation fits 1 KB."""
    community, owner = _community()
    root = hospital(n_patients=16, episodes_per_patient=4)
    rules = hospital_rules()
    owner.publish(tree_to_events(root), rules, to=["alice"], doc_id="med")
    outcome = _pull(community, "alice", "med", subject="doctor")
    expected = write_string(reference_view(root, rules, "doctor"))
    assert outcome.xml == expected
    assert outcome.metrics.ram_high_water <= 1024


def test_refetch_and_buffer_deliver_same_content():
    """The two pending strategies agree on delivered elements/text."""
    document = (
        "<mail>"
        + "".join(
            f"<msg><body>content {i}</body><flag>{'keep' if i % 2 else 'drop'}</flag></msg>"
            for i in range(8)
        )
        + "</mail>"
    )
    rules = RuleSet(
        [AccessRule.parse("+", "u", '//msg[flag = "keep"]/body', rule_id="F0")]
    )
    community, owner = _community()
    community.enroll("u")
    owner.publish(document, rules, to=["u"], doc_id="mail", chunk_size=48)

    def delivered_texts(xml_parts):
        texts = []
        for part in xml_parts:
            if part:
                for event in parse_string(f"<frag>{part}</frag>"):
                    if hasattr(event, "text"):
                        texts.append(event.text)
        return sorted(texts)

    buffered = _pull(community, "u", "mail", strategy=PendingStrategy.BUFFER)
    refetched = _pull(community, "u", "mail", strategy=PendingStrategy.REFETCH)
    assert delivered_texts([buffered.xml]) == delivered_texts(
        [refetched.xml] + [t for __, t in refetched.fragments]
    )
    assert (
        refetched.metrics.max_pending_bytes
        <= buffered.metrics.max_pending_bytes
    )


def test_one_card_many_documents():
    """A single card serves several documents with separate keys."""
    community, owner = _community()
    doc_a = "<a><x>alpha</x></a>"
    doc_b = "<b><y>beta</y></b>"
    rules_a = RuleSet([AccessRule.parse("+", "alice", "/a", rule_id="A")])
    rules_b = RuleSet([AccessRule.parse("+", "alice", "/b", rule_id="B")])
    owner.publish(doc_a, rules_a, to=["alice"], doc_id="doc-a")
    owner.publish(doc_b, rules_b, to=["alice"], doc_id="doc-b")
    assert "alpha" in _pull(community, "alice", "doc-a").xml
    assert "beta" in _pull(community, "alice", "doc-b").xml


def test_output_paths_subset_of_input():
    community, owner = _community()
    root = hospital(10)
    rules = hospital_rules()
    owner.publish(tree_to_events(root), rules, to=["alice"], doc_id="med")
    result = _pull(community, "alice", "med", subject="nurse")
    input_paths = set(events_to_paths(tree_to_events(root)))
    if result.xml:
        output_paths = set(events_to_paths(parse_string(result.xml)))
        assert output_paths <= input_paths
