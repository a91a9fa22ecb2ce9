"""Unit tests for the cost model and simulated clock."""

import pytest

from repro.smartcard.resources import (
    CostModel,
    LinkModel,
    NetworkModel,
    SessionMetrics,
    SimClock,
)


def test_cost_model_seconds():
    cost = CostModel(cpu_hz=1_000_000)
    assert cost.seconds(1_000_000) == 1.0


def test_link_transfer_matches_paper_bandwidth():
    link = LinkModel()
    # 2 KB at 2 KB/s takes one second -- the paper's headline number.
    assert link.transfer_seconds(2048) == pytest.approx(1.0)


def test_network_is_much_faster_than_link():
    assert NetworkModel().transfer_seconds(2048) < LinkModel().transfer_seconds(2048) / 100


def test_clock_accumulates_components():
    clock = SimClock()
    clock.add("cpu", 0.5)
    clock.add("cpu", 0.25)
    clock.add("link", 1.0)
    assert clock.component("cpu") == pytest.approx(0.75)
    assert clock.total() == pytest.approx(1.75)
    assert set(clock.breakdown()) == {"cpu", "link"}


def test_clock_rejects_negative():
    with pytest.raises(ValueError):
        SimClock().add("cpu", -1.0)


def test_clock_reset():
    clock = SimClock()
    clock.add("cpu", 1.0)
    clock.reset()
    assert clock.total() == 0.0


def test_session_metrics_as_dict():
    metrics = SessionMetrics()
    metrics.bytes_decrypted = 100
    metrics.clock.add("link", 2.0)
    flat = metrics.as_dict()
    assert flat["bytes_decrypted"] == 100
    assert flat["time_link"] == 2.0
    assert flat["time_total"] == 2.0


def test_cycle_component_converts_once_on_read():
    clock = SimClock()
    for __ in range(10):
        clock.add_cycles("card_cpu", 1, 3.0)
    assert clock.component("card_cpu") == 10 / 3.0
    assert clock.breakdown() == {"card_cpu": 10 / 3.0}
    assert clock.total() == 10 / 3.0


def test_cycle_component_keeps_one_rate_and_one_unit():
    clock = SimClock()
    clock.add_cycles("card_cpu", 5, 33e6)
    clock.add("link", 1.0)
    with pytest.raises(ValueError):
        clock.add_cycles("card_cpu", 5, 1e6)
    with pytest.raises(ValueError):
        clock.add("card_cpu", 1.0)
    with pytest.raises(ValueError):
        clock.add_cycles("link", 5, 33e6)
    with pytest.raises(ValueError):
        clock.add_cycles("card_cpu", -1, 33e6)


def test_since_recovers_exact_cycle_deltas_from_a_snapshot():
    hz = CostModel().cpu_hz
    clock = SimClock()
    clock.add_cycles("card_cpu", 123_456_789_013, hz)
    clock.add("link", 0.1)
    before = clock.snapshot()
    assert all(type(value) is float for value in before.values())
    clock.add_cycles("card_cpu", 987_654_321, hz)
    clock.add("link", 0.2)
    delta = clock.since(before)
    assert delta.component("card_cpu") == 987_654_321 / hz
    assert delta.component("link") == pytest.approx(0.2)
    assert clock.since(clock.snapshot()).breakdown() == {}


def test_reset_forgets_cycle_rates():
    clock = SimClock()
    clock.add_cycles("card_cpu", 7, 1e6)
    clock.reset()
    clock.add("card_cpu", 1.0)
    assert clock.component("card_cpu") == 1.0
