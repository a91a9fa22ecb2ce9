"""The static encryption-based sharing model ([1], [6]).

"the dataset is split in subsets reflecting a current sharing
situation, each encrypted with a different key.  Once the dataset is
encrypted, changes in the access control rules definition may impact
the subset boundaries, hence incurring a partial re-encryption of the
dataset and a potential redistribution of keys." (Section 1)

This module implements exactly that scheme so experiment E8 can price
policy churn: nodes are grouped by *authorization vector* (the set of
subjects allowed to read them), each group gets its own key, and each
subject receives the keys of the groups it may read.  A rule change
moves nodes between groups -> those nodes are re-encrypted; it changes
subjects' key sets -> keys are redistributed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.reference import _decide, _direct_matches
from repro.core.rules import RuleSet, Sign
from repro.xmlstream.events import event_size
from repro.xmlstream.events import CloseEvent, OpenEvent, ValueEvent
from repro.xmlstream.tree import Element


def _node_bytes(node: Element) -> int:
    """Serialized bytes owned by this node alone (tags, attrs, text)."""
    open_event = OpenEvent(node.tag, tuple(node.attributes.items()))
    size = event_size(open_event) + event_size(CloseEvent(node.tag))
    for child in node.children:
        if isinstance(child, str):
            size += event_size(ValueEvent(child))
    return size


@dataclass(frozen=True, slots=True)
class ChurnCost:
    """Price of one policy change under static encryption."""

    nodes_reencrypted: int
    bytes_reencrypted: int
    keys_redistributed: int
    classes_before: int
    classes_after: int


class StaticEncryptionScheme:
    """Authorization-equivalence-class encryption of one document."""

    def __init__(
        self, root: Element, rules: RuleSet, subjects: list[str]
    ) -> None:
        self.root = root
        self.subjects = list(subjects)
        self._vectors: dict[int, frozenset[str]] = {}
        self._key_sets: dict[str, set[frozenset[str]]] = {}
        self._compute(rules)

    def _compute(self, rules: RuleSet) -> None:
        vectors: dict[int, frozenset[str]] = {}
        for subject in self.subjects:
            subject_rules = rules.for_subject(subject)
            matches = _direct_matches(subject_rules, self.root)
            cache: dict[int, Sign] = {}
            for node in self.root.iter():
                decision = _decide(node, matches, Sign.DENY, cache)
                if decision is Sign.PERMIT:
                    current = vectors.get(id(node), frozenset())
                    vectors[id(node)] = current | {subject}
        for node in self.root.iter():
            vectors.setdefault(id(node), frozenset())
        self._vectors = vectors
        key_sets: dict[str, set[frozenset[str]]] = {
            subject: set() for subject in self.subjects
        }
        for vector in vectors.values():
            for subject in vector:
                key_sets[subject].add(vector)
        self._key_sets = key_sets

    @property
    def class_count(self) -> int:
        """Number of distinct encryption classes (keys) in use."""
        return len(set(self._vectors.values()))

    def rekey_for(self, new_rules: RuleSet) -> ChurnCost:
        """Price a policy change, then adopt it.

        A node whose authorization vector changed moves to another
        class and must be re-encrypted; every (subject, new key) pair
        not previously held is a key redistribution.  Keys of shrunken
        classes are rotated, so members of a class that *lost* a
        subject receive fresh keys too (otherwise the revoked subject
        could keep decrypting) -- the standard revocation cost.
        """
        old_vectors = self._vectors
        old_key_sets = {
            subject: set(keys) for subject, keys in self._key_sets.items()
        }
        classes_before = self.class_count
        self._compute(new_rules)
        nodes = 0
        nbytes = 0
        changed_vectors: set[frozenset[str]] = set()
        for node in self.root.iter():
            old = old_vectors.get(id(node), frozenset())
            new = self._vectors[id(node)]
            if old != new:
                nodes += 1
                nbytes += _node_bytes(node)
                changed_vectors.add(new)
        keys = 0
        for subject in self.subjects:
            gained = self._key_sets[subject] - old_key_sets.get(subject, set())
            keys += len(gained)
            # Rotated keys: classes the subject keeps but whose
            # membership changed (someone was revoked from them).
            kept = self._key_sets[subject] & old_key_sets.get(subject, set())
            keys += len(kept & changed_vectors)
        return ChurnCost(
            nodes_reencrypted=nodes,
            bytes_reencrypted=nbytes,
            keys_redistributed=keys,
            classes_before=classes_before,
            classes_after=self.class_count,
        )
