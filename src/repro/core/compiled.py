"""Compile-once / evaluate-many policy layer.

The paper's engine compiles access rules into automata when the policy
is uploaded and then streams many documents through them (Section 2.3).
The seed reproduction instead recompiled every rule path on each
:class:`~repro.core.pipeline.AccessController` construction -- once per
(document, subject) pass.  This module restores the paper's split:

* :class:`CompiledPolicy` is the frozen product of compilation: the
  rule automata, their signs, the total automaton state count and the
  modeled secure-RAM cost.  It is immutable and safe to share between
  any number of concurrent evaluations.
* :func:`compile_policy` builds one from a :class:`RuleSet`;
  :func:`compile_query` builds the one-rule policy of a pull query.
* :class:`PolicyRegistry` is an LRU cache of compiled policies keyed by
  the content fingerprint of the effective sub-policy and the default
  sign, with a secondary cache for compiled queries.  Content
  addressing is its whole answer to policy churn: a changed policy
  fingerprints anew and misses, and the LRU bound caps the superseded
  generations left behind.

Per-document setup through this layer allocates only tokens and
frames; NFAs are compiled exactly once per distinct policy.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Union

from repro.core.nfa import CompiledPath, compile_path
from repro.core.product import ProductTables
from repro.core.rules import RuleSet, Sign, Subject
from repro.xpathlib.ast import Path
from repro.xpathlib.parser import parse_path

#: Modeled RAM cost of one compiled automaton state (compact C layout).
#: Historically defined in :mod:`repro.smartcard.applet`; it lives here
#: now so the RAM model travels with the compiled artifact.
AUTOMATON_STATE_BYTES = 4


@dataclass(frozen=True, slots=True)
class CompiledPolicy:
    """The frozen, shareable result of compiling one subject's policy.

    ``automata[i]`` carries sign ``signs[i]``; ``default`` is the
    closed/open-world default the decision chain starts from.
    ``state_count`` totals every navigational and predicate state, so
    the card can charge secure RAM without recompiling anything.
    ``fingerprint`` is the content hash of the *effective* (already
    subject-filtered) sub-policy -- two subjects whose rights coincide
    compile to the same fingerprint.

    ``tables`` are the product-machine tables of ``automata``, solved
    lazily by the sessions that evaluate this policy alone; they live
    exactly as long as the policy (a registry eviction drops them too).
    """

    fingerprint: str
    subject: Subject | None
    default: Sign
    automata: tuple[CompiledPath, ...]
    signs: tuple[Sign, ...]
    state_count: int
    tables: ProductTables = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", ProductTables(self.automata))

    def __len__(self) -> int:
        return len(self.automata)

    @property
    def ram_bytes(self) -> int:
        """Modeled secure-RAM footprint of the compiled automata."""
        return self.state_count * AUTOMATON_STATE_BYTES


def _subject_key(subject: Subject | str | None) -> Subject | None:
    if isinstance(subject, str):
        return Subject(subject)
    return subject


def compile_policy(
    rules: RuleSet,
    subject: Subject | str | None = None,
    default: Sign = Sign.DENY,
) -> CompiledPolicy:
    """Compile the sub-policy of ``rules`` applying to ``subject``.

    ``subject=None`` means the rule set is already subject-specific
    (that is how the card receives it: the DSP stores per-subject
    encrypted rule sets).
    """
    subject = _subject_key(subject)
    if subject is not None:
        rules = rules.for_subject(subject)
    automata: list[CompiledPath] = []
    signs: list[Sign] = []
    for rule in rules:
        automata.append(compile_path(rule.object))
        signs.append(rule.sign)
    return CompiledPolicy(
        fingerprint=rules.fingerprint(),
        subject=subject,
        default=default,
        automata=tuple(automata),
        signs=tuple(signs),
        state_count=sum(path.state_count() for path in automata),
    )


def compile_query(query: str | Path) -> CompiledPolicy:
    """Compile a pull query as a one-rule policy.

    "The authorized subpart matching the query" (Section 2) is the
    conjunction of the subject's policy with this one: the query's
    subtrees are PERMIT under a closed-world default.  The fingerprint
    hashes the query's text form, so equal queries fingerprint alike.
    """
    if isinstance(query, str):
        query = parse_path(query)
    path = compile_path(query)
    return CompiledPolicy(
        fingerprint=hashlib.sha1(f"query:{query}".encode()).hexdigest(),
        subject=None,
        default=Sign.DENY,
        automata=(path,),
        signs=(Sign.PERMIT,),
        state_count=path.state_count(),
    )


class RegistryStats:
    """Counters of one registry's cache behavior."""

    __slots__ = ("hits", "misses", "query_hits", "query_misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.query_hits = 0
        self.query_misses = 0
        self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegistryStats(hits={self.hits}, misses={self.misses}, "
            f"query_hits={self.query_hits}, query_misses={self.query_misses}, "
            f"evictions={self.evictions})"
        )


class PolicyRegistry:
    """An LRU cache of :class:`CompiledPolicy` objects.

    Conceptually keyed by ``(ruleset, subject, default)``; physically
    the key is the content fingerprint of the *effective* sub-policy
    -- ``rules.for_subject(subject)`` -- plus the default sign.  Two
    subjects whose rights coincide (e.g. two members of the same
    subscription tier) therefore share one entry and one set of
    compiled automata, and policy churn (a changed, added or removed
    rule, in place or in a new rule set) naturally misses and compiles
    fresh automata.  Nothing is evicted eagerly: a superseded
    generation is never looked up again and ages out under the
    ``capacity`` bound.

    The registry also caches compiled *queries* (pull scenarios), keyed
    by their text form; each is a :func:`compile_query` policy that
    owns its solved tables like any other.  All methods are thread-safe.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("registry capacity must be positive")
        self.capacity = capacity
        self.stats = RegistryStats()
        self._lock = threading.Lock()
        self._policies: OrderedDict[tuple[str, Sign], CompiledPolicy] = (
            OrderedDict()
        )
        # (source fingerprint, subject, default) -> policy key: an O(1)
        # accelerator so warm lookups skip the for_subject filter and
        # the effective-fingerprint hash.  Entries may dangle after an
        # eviction; a dangling alias just falls back to the slow path.
        self._aliases: OrderedDict[
            tuple[str, Subject | None, Sign], tuple[str, Sign]
        ] = OrderedDict()
        self._queries: OrderedDict[str, CompiledPolicy] = OrderedDict()

    def __len__(self) -> int:
        return len(self._policies)

    # -- policies ---------------------------------------------------------

    def get(
        self,
        rules: RuleSet,
        subject: Subject | str | None = None,
        default: Sign = Sign.DENY,
    ) -> CompiledPolicy:
        """The compiled policy for ``(rules, subject, default)``.

        Compiles the first time a policy's content is requested and
        returns the cached automata afterwards; a rule set mutated since
        its last ``get`` fingerprints anew, so its new policy compiles.
        """
        source_fingerprint = rules.fingerprint()
        subject = _subject_key(subject)
        alias = (source_fingerprint, subject, default)
        with self._lock:
            key = self._aliases.get(alias)
            if key is not None:
                cached = self._policies.get(key)
                if cached is not None:
                    self._aliases.move_to_end(alias)
                    self._policies.move_to_end(key)
                    self.stats.hits += 1
                    return cached
        # Slow path: filter the sub-policy and hash it.  Compilation
        # happens outside the lock: it is pure, and a rare duplicate
        # compile is cheaper than serializing all compiles.
        effective = rules.for_subject(subject) if subject is not None else rules
        key = (effective.fingerprint(), default)
        with self._lock:
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            # Aliases are a pure accelerator -- bound them independently;
            # dropping one only costs a slow-path lookup later.
            while len(self._aliases) > 4 * self.capacity:
                self._aliases.popitem(last=False)
            cached = self._policies.get(key)
            if cached is not None:
                self._policies.move_to_end(key)
                self.stats.hits += 1
                return cached
        policy = compile_policy(effective, None, default)
        with self._lock:
            self.stats.misses += 1
            self._policies[key] = policy
            self._policies.move_to_end(key)
            while len(self._policies) > self.capacity:
                self._policies.popitem(last=False)
                self.stats.evictions += 1
        return policy

    # -- queries ----------------------------------------------------------

    def get_query(self, query: Union[str, Path]) -> CompiledPolicy:
        """The :func:`compile_query` policy of one query, cached by text."""
        key = query if isinstance(query, str) else str(query)
        with self._lock:
            cached = self._queries.get(key)
            if cached is not None:
                self._queries.move_to_end(key)
                self.stats.query_hits += 1
                return cached
        compiled = compile_query(query)
        with self._lock:
            self.stats.query_misses += 1
            self._queries[key] = compiled
            self._queries.move_to_end(key)
            while len(self._queries) > self.capacity:
                self._queries.popitem(last=False)
                self.stats.evictions += 1
        return compiled
