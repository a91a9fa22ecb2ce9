"""The hostile-world scenario matrix, cell by cell and as a property.

Every (scenario x fault) cell must either raise its documented
:mod:`repro.errors` type or deliver a view byte-identical to the
fault-free golden -- and no cell may hang (the runner's watchdog turns
a hang into a failed cell).  The hypothesis sweep replays the quick
matrix over random seeds: determinism means any red cell reproduces
from its printed ``(scenario, fault, seed)`` coordinates.
"""

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import SCENARIOS, Scenario, ScenarioResult, run_cell
from repro.chaos.scenarios import golden_views

ALL_CELLS = [
    (scenario, fault)
    for scenario in SCENARIOS
    for fault in scenario.faults
]
QUICK = [
    (scenario, fault)
    for scenario in SCENARIOS
    for fault in scenario.quick
]


def test_goldens_are_nonempty_and_distinct():
    v1, v2 = golden_views(1), golden_views(2)
    for views in (v1, v2):
        assert set(views) == {"doctor", "accountant"}
        assert all(views.values())
    assert v1["doctor"] != v2["doctor"]  # a republish really moves


def test_quick_set_is_a_subset_of_the_full_matrix():
    assert set(QUICK) <= set(ALL_CELLS)
    names = [scenario.name for scenario in SCENARIOS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize(
    "scenario,fault",
    ALL_CELLS,
    ids=[f"{s.name}-{fault}" for s, fault in ALL_CELLS],
)
def test_matrix_cell(scenario, fault):
    result = run_cell(scenario, fault, seed=0, deadline=60.0)
    assert result.ok, f"{result}\n{result.fault_log}"
    assert result.error != "Hang"


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=1, max_value=2**16))
def test_quick_matrix_holds_for_any_seed(seed):
    for scenario, fault in QUICK:
        result = run_cell(scenario, fault, seed, deadline=60.0)
        assert result.ok, f"{result}\n{result.fault_log}"


def test_watchdog_turns_a_hang_into_a_failed_cell():
    release = threading.Event()

    def hung(seed, fault):
        # Blocks until the test releases it, then returns a proper
        # result so the abandoned worker ends cleanly.
        release.wait(30)
        return ScenarioResult("hang", fault, seed, ok=False)

    hang = Scenario("hang", ("sleep",), ("sleep",), hung)
    start = time.monotonic()
    try:
        result = run_cell(hang, "sleep", seed=0, deadline=0.3)
    finally:
        release.set()
    assert time.monotonic() - start < 5
    assert not result.ok
    assert result.error == "Hang"
    assert "deadline" in result.detail


def test_results_render_readably():
    shown = str(
        ScenarioResult(
            "backend-pull", "torn", 3, ok=True, error="TamperDetected"
        )
    )
    assert "backend-pull" in shown and "torn" in shown and "seed 3" in shown
