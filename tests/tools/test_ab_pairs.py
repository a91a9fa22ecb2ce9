"""The verdict of ``benchmarks/ab_pairs.py`` on fixed numbers."""

import importlib.util
import pathlib
import sys

import pytest

AB_PAIRS_PATH = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "ab_pairs.py"
)


def _load():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_AB_PAIRS = _load()
verdict = _AB_PAIRS.verdict
exact_diff = _AB_PAIRS.exact_diff

PARENT = [6.70, 6.80, 6.60, 6.90, 6.75, 6.85, 6.65, 6.95, 6.78, 6.72]


def test_a_clear_gain_holds():
    change = [value - 0.6 for value in PARENT]
    judged = verdict(PARENT, change, "lower")
    assert judged.wins == 10 and judged.pairs == 10
    assert judged.parent[1] == pytest.approx(6.765)
    assert judged.parent_iqr == pytest.approx(6.8625 - 6.6875)
    assert judged.gain == pytest.approx(0.6)
    assert judged.holds


def test_nine_wins_of_ten_suffice_eight_do_not():
    change = [value - 0.6 for value in PARENT]
    change[0] = PARENT[0] + 1.0
    assert verdict(PARENT, change, "lower").holds
    change[1] = PARENT[1]  # a tie counts for neither side
    judged = verdict(PARENT, change, "lower")
    assert judged.wins == 8 and not judged.holds


def test_a_gain_inside_the_parent_spread_fails():
    change = [value - 0.1 for value in PARENT]  # IQR is 0.175
    judged = verdict(PARENT, change, "lower")
    assert judged.wins == 10 and not judged.holds


def test_higher_is_better():
    rates = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.2]
    judged = verdict(rates, [rate + 10 for rate in rates], "higher")
    assert judged.wins == 10 and judged.gain == pytest.approx(10.0) and judged.holds
    assert not verdict(rates, [rate - 10 for rate in rates], "higher").holds


def test_no_regression_lower_is_better():
    # Parent median 6.765, IQR/median 0.026: resolved under 0.15.
    assert verdict(PARENT, [v + 0.5 for v in PARENT], "lower").regression(0.15) == "ok"
    assert verdict(PARENT, [v + 1.2 for v in PARENT], "lower").regression(0.15) == "regressed"
    # Under 0.02 the parent's own spread is too wide to tell ...
    assert verdict(PARENT, [v + 0.05 for v in PARENT], "lower").regression(0.02) == "unresolved"
    # ... unless every change run beats every parent run.
    assert verdict(PARENT, [v - 1.0 for v in PARENT], "lower").regression(0.02) == "ok"


def test_no_regression_higher_is_better():
    rates = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.2]
    # Parent median 100.1, IQR/median 0.022: resolved under 0.15.
    assert verdict(rates, [r - 10 for r in rates], "higher").regression(0.15) == "ok"
    assert verdict(rates, [r - 20 for r in rates], "higher").regression(0.15) == "regressed"
    assert verdict(rates, [r - 1 for r in rates], "higher").regression(0.02) == "unresolved"
    assert verdict(rates, [r + 5 for r in rates], "higher").regression(0.02) == "ok"


def test_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster")


EXACT = {
    "ops": 50,
    "terminal.dsp_requests": 255,
    "smartcard.apdus": 1104,
    "model.network_s": 1.28024,
}


def test_identical_exact_blocks_have_no_diff():
    assert exact_diff(EXACT, dict(EXACT)) == {}


def test_exact_diff_names_each_differing_key_with_both_values():
    change = dict(EXACT, **{"terminal.dsp_requests": 248, "model.network_s": 1.245184})
    assert exact_diff(EXACT, change) == {
        "model.network_s": (1.28024, 1.245184),
        "terminal.dsp_requests": (255, 248),
    }


def test_exact_diff_reads_a_missing_key_as_none():
    change = {key: value for key, value in EXACT.items() if key != "smartcard.apdus"}
    change["feeds.wraps"] = 0
    assert exact_diff(EXACT, change) == {
        "feeds.wraps": (None, 0),
        "smartcard.apdus": (1104, None),
    }
