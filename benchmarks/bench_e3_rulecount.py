"""E3 -- evaluation cost vs number of access rules.

All automata share one product machine, so cost should grow
sub-linearly in the rule count (shared frames; suspended/inhibited
rules drop out early).  Measured on the in-memory engine to isolate
rule evaluation from crypto, plus one full-stack column as a sanity
anchor.
"""

from _common import emit

from repro.core.pipeline import AccessController
from repro.core.runtime import EngineStats
from repro.smartcard.resources import CostModel
from repro.workloads.docgen import hospital
from repro.workloads.rulegen import synthetic_rules
from repro.xmlstream.tree import tree_to_events

RULE_COUNTS = [1, 2, 4, 8, 16, 32, 64]
COST = CostModel()


def _engine_pass(events, rules):
    stats = EngineStats()
    controller = AccessController(rules, "u", stats=stats)
    for event in events:
        controller.feed(event)
    controller.finish()
    cycles = (
        stats.events * COST.cycles_per_event
        + stats.token_checks * COST.cycles_per_token_check
        + stats.token_advances * COST.cycles_per_token_advance
        + stats.conditions_created * COST.cycles_per_condition
    )
    return stats, cycles


def run_experiment():
    events = list(tree_to_events(hospital(n_patients=15)))
    headers = [
        "rules", "token checks", "advances", "conditions",
        "card cpu (ms)", "ms per rule",
    ]
    rows = []
    for count in RULE_COUNTS:
        rules = synthetic_rules(count, seed=23)
        stats, cycles = _engine_pass(events, rules)
        milliseconds = 1000 * COST.seconds(cycles)
        rows.append([
            count,
            stats.token_checks,
            stats.token_advances,
            stats.conditions_created,
            milliseconds,
            milliseconds / count,
        ])
    return "E3: evaluation cost vs rule count (hospital, 15 patients)", headers, rows


def test_e3_rulecount(benchmark):
    events = list(tree_to_events(hospital(n_patients=15)))
    rules = synthetic_rules(16, seed=23)
    benchmark.pedantic(
        lambda: _engine_pass(events, rules), rounds=3, iterations=1
    )
    emit(*run_experiment())


if __name__ == "__main__":
    emit(*run_experiment())
