"""Access-control model: ``<sign, subject, object>`` rules.

From Section 2.2 of the paper:

    "access control rules, or access rules for short, take the form of a
    3-uple <sign, subject, object>.  Sign denotes either a permission
    (positive rule) or a prohibition (negative rule) for the read
    operation.  Subject is self-explanatory.  Object corresponds to
    elements or subtrees in the XML document, identified by an XPath
    expression [in] XP{[],*,//}."

Rules propagate to descendants; conflicts are resolved by the two
policies implemented in :mod:`repro.core.decisions`.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.xpathlib.ast import Path
from repro.xpathlib.parser import parse_path

_rule_counter = itertools.count(1)


class Sign(enum.Enum):
    """Permission or prohibition for the read operation."""

    PERMIT = "+"
    DENY = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Subject:
    """An access-control subject: a user together with its groups.

    The demo paper keeps subjects abstract; we follow the common
    user/group scheme of its underlying models ([1], [3]): a rule whose
    subject names either the user itself or one of its groups applies.
    """

    name: str
    groups: frozenset[str] = field(default=frozenset())

    def covers(self, rule_subject: str) -> bool:
        """Whether a rule written for ``rule_subject`` applies to us."""
        return rule_subject == self.name or rule_subject in self.groups


@dataclass(frozen=True, slots=True)
class AccessRule:
    """A single access rule ``<sign, subject, object>``."""

    sign: Sign
    subject: str
    object: Path
    rule_id: str

    def __post_init__(self) -> None:
        if not self.object.absolute:
            raise ValueError("rule objects must be absolute paths")

    @classmethod
    def parse(
        cls,
        sign: Sign | str,
        subject: str,
        xpath: str,
        rule_id: str | None = None,
    ) -> "AccessRule":
        """Build a rule from textual components.

        ``sign`` accepts a :class:`Sign` or the characters ``'+'``/``'-'``.
        """
        if isinstance(sign, str):
            sign = Sign(sign)
        if rule_id is None:
            rule_id = f"R{next(_rule_counter)}"
        return cls(sign, subject, parse_path(xpath), rule_id)

    def __str__(self) -> str:
        return f"<{self.sign}, {self.subject}, {self.object}>"


class RuleSet:
    """An ordered collection of access rules (a policy).

    The set is what the DSP stores encrypted and what the card applies;
    :meth:`for_subject` extracts the rules relevant to one subject,
    which is what actually gets compiled into automata.
    """

    def __init__(self, rules: Iterable[AccessRule] = ()) -> None:
        self._rules: list[AccessRule] = list(rules)
        self._ids = {rule.rule_id for rule in self._rules}
        if len(self._ids) != len(self._rules):
            raise ValueError("duplicate rule identifiers in rule set")
        #: Running hash over the rules so far, built by the first
        #: :meth:`fingerprint`; ``add`` extends one that exists,
        #: ``remove`` drops it for a rebuild.  A set whose fingerprint
        #: is never read is never hashed.
        self._digest: hashlib._Hash | None = None
        self._fingerprint: str | None = None

    def __iter__(self) -> Iterator[AccessRule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def add(self, rule: AccessRule) -> None:
        """Append a rule (policies are dynamic -- the paper's point).

        O(1): the running digest, if built, absorbs the new rule only.
        """
        if rule.rule_id in self._ids:
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._fingerprint = None
        if self._digest is not None:
            _digest_rule(self._digest, rule)
        self._rules.append(rule)
        self._ids.add(rule.rule_id)

    def remove(self, rule_id: str) -> AccessRule:
        """Remove and return the rule with the given id."""
        for index, rule in enumerate(self._rules):
            if rule.rule_id == rule_id:
                self._fingerprint = None
                self._digest = None  # a hash cannot forget: rebuild
                self._ids.discard(rule_id)
                return self._rules.pop(index)
        raise KeyError(rule_id)

    def for_subject(self, subject: Subject | str) -> "RuleSet":
        """The sub-policy applying to ``subject``."""
        if isinstance(subject, str):
            subject = Subject(subject)
        return RuleSet(r for r in self._rules if subject.covers(r.subject))

    def fingerprint(self) -> str:
        """Content hash of the policy (order-sensitive, id-insensitive).

        Two rule sets with the same ``<sign, subject, object>`` triples
        in the same order fingerprint identically, whatever their rule
        ids -- evaluation never looks at ids.  The
        :class:`~repro.core.compiled.PolicyRegistry` keys its cache on
        this, so any policy churn (add/remove/change) produces a fresh
        fingerprint and misses the cache.

        Fields are length-prefixed before hashing: separator characters
        inside a subject or object string cannot forge a collision with
        a differently-split policy.  The result is memoized; ``add`` /
        ``remove`` (the only mutators) drop the memo.
        """
        if self._fingerprint is None:
            self._fingerprint = self._running_digest().hexdigest()
        return self._fingerprint

    def _running_digest(self) -> hashlib._Hash:
        if self._digest is None:
            digest = hashlib.sha1()
            for rule in self._rules:
                _digest_rule(digest, rule)
            self._digest = digest
        return self._digest

    def label_set(self) -> frozenset[str]:
        """Union of all tag names the rules mention (skip-index filter)."""
        labels: set[str] = set()
        for rule in self._rules:
            labels.update(rule.object.label_set())
        return frozenset(labels)

    def signs(self) -> tuple[Sign, ...]:
        return tuple(rule.sign for rule in self._rules)

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)


def _digest_rule(digest: hashlib._Hash, rule: AccessRule) -> None:
    """Feed one rule's length-prefixed fields to a fingerprint hash."""
    for part in (str(rule.sign), rule.subject, str(rule.object)):
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
