"""The paper's primary contribution: streaming access control for XML.

The package implements Section 2 of the paper:

* :mod:`repro.core.rules` -- the ``<sign, subject, object>`` access-rule
  model with cascading propagation (Section 2.2),
* :mod:`repro.core.nfa` / :mod:`repro.core.compiled` -- the
  non-deterministic automata of Figure 2 (navigational path + predicate
  paths),
* :mod:`repro.core.product` -- the product machine that advances all
  automata, predicate sub-automata included, on
  ``open``/``value``/``close`` events and backtracks
  (:mod:`repro.core.runtime` holds its counters and RAM sizes),
* :mod:`repro.core.conditions` / :mod:`repro.core.decisions` -- the
  predicate set, pending rules and the sign stack with
  Denial-Takes-Precedence and Most-Specific-Object-Takes-Precedence,
* :mod:`repro.core.evaluator` + :mod:`repro.core.delivery` +
  :mod:`repro.core.pipeline` -- the streaming evaluator producing the
  authorized view of a document: one lane
  (:func:`~repro.core.evaluator.add_lane`) per compiled policy, the
  delivery records as the one decision stack, and a pull query is a
  one-rule policy too
  (``AccessController``'s ``query`` takes the
  :class:`~repro.core.compiled.CompiledPolicy` of
  :func:`~repro.core.compiled.compile_query` or
  :meth:`~repro.core.compiled.PolicyRegistry.get_query`),
* :mod:`repro.core.reference` -- a non-streaming oracle used for
  differential testing.
"""

from repro.core.analysis import PolicyReport, analyse, conflicts, minimize
from repro.core.compiled import CompiledPolicy, PolicyRegistry, compile_policy
from repro.core.delivery import ViewMode
from repro.core.multicast import (
    MultiSubjectEvaluator,
    multicast_view_texts,
    multicast_views,
)
from repro.core.pipeline import AccessController, authorized_view
from repro.core.reference import reference_view
from repro.core.rules import AccessRule, RuleSet, Sign, Subject

__all__ = [
    "AccessController",
    "AccessRule",
    "CompiledPolicy",
    "MultiSubjectEvaluator",
    "PolicyRegistry",
    "PolicyReport",
    "RuleSet",
    "Sign",
    "Subject",
    "ViewMode",
    "analyse",
    "authorized_view",
    "compile_policy",
    "conflicts",
    "minimize",
    "multicast_view_texts",
    "multicast_views",
    "reference_view",
]
