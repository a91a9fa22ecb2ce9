"""Unit tests for the secure-RAM meter."""

import pytest

from repro.smartcard.memory import CardMemoryError, MemoryMeter


def test_allocation_tracking():
    meter = MemoryMeter(quota=100)
    meter.allocate("a", 40)
    meter.allocate("b", 30)
    assert meter.usage() == 70
    assert meter.usage("a") == 40
    assert meter.breakdown() == {"a": 40, "b": 30}


def test_high_water_persists_after_release():
    meter = MemoryMeter(quota=100)
    meter.allocate("a", 80)
    meter.release("a", 80)
    assert meter.usage() == 0
    assert meter.high_water == 80


def test_strict_quota_enforced():
    meter = MemoryMeter(quota=100, strict=True)
    meter.allocate("a", 90)
    with pytest.raises(CardMemoryError) as info:
        meter.allocate("a", 20)
    assert info.value.requested == 20
    assert info.value.quota == 100


def test_soft_mode_records_overflow():
    meter = MemoryMeter(quota=100, strict=False)
    meter.allocate("a", 150)
    assert meter.overflowed
    assert meter.high_water == 150


def test_unlimited_quota():
    meter = MemoryMeter(quota=None)
    meter.allocate("a", 10**9)
    assert not meter.overflowed


def test_release_more_than_held_rejected():
    meter = MemoryMeter(quota=None)
    meter.allocate("a", 10)
    with pytest.raises(ValueError):
        meter.release("a", 20)


def test_negative_allocation_rejected():
    meter = MemoryMeter(quota=None)
    with pytest.raises(ValueError):
        meter.allocate("a", -1)


def test_release_to_returns_each_tag_to_its_mark():
    meter = MemoryMeter(quota=100)
    meter.allocate("a", 10)
    mark = meter.breakdown()
    meter.allocate("a", 30)
    meter.allocate("b", 20)
    meter.release_to(mark)
    assert meter.breakdown() == {"a": 10}
    assert meter.usage() == 10
    assert meter.high_water == 60


def test_hot_and_cold_tags_share_one_total():
    # "engine", "signs" and "pending" are the per-element pools; the
    # rest ("automata", "decoder", ...) are charged per session.
    meter = MemoryMeter(quota=200)
    meter.allocate("automata", 30)
    meter.allocate("engine", 22)
    meter.allocate("decoder", 8)
    meter.allocate("signs", 4)
    meter.allocate("pending", 41)
    meter.allocate("engine", 14)
    assert meter.usage() == 119
    assert meter.usage("engine") == 36
    assert meter.usage("signs") == 4
    assert meter.usage("pending") == 41
    assert meter.usage("automata") == 30
    assert meter.usage("unknown") == 0
    assert meter.breakdown() == {
        "automata": 30, "engine": 36, "decoder": 8, "signs": 4, "pending": 41
    }
    meter.release("pending", 41)
    meter.release("engine", 14)
    assert meter.breakdown() == {
        "automata": 30, "engine": 22, "decoder": 8, "signs": 4
    }
    assert meter.usage() == 64
    assert meter.high_water == 119


def test_release_to_returns_hot_and_cold_tags_to_their_marks():
    meter = MemoryMeter(quota=None)
    meter.allocate("automata", 28)
    meter.allocate("engine", 14)
    mark = meter.breakdown()
    meter.allocate("engine", 36)
    meter.allocate("signs", 8)
    meter.allocate("pending", 17)
    meter.allocate("decoder", 24)
    meter.allocate("automata", 8)
    meter.release_to(mark)
    assert meter.breakdown() == {"automata": 28, "engine": 14}
    assert meter.usage() == 42
    assert meter.usage("signs") == meter.usage("pending") == 0
    assert meter.high_water == 135


def test_strict_fault_reports_the_total_before_the_request():
    meter = MemoryMeter(quota=100, strict=True)
    meter.allocate("automata", 50)
    meter.allocate("engine", 40)
    with pytest.raises(CardMemoryError) as info:
        meter.allocate("signs", 14)
    assert (info.value.requested, info.value.used, info.value.quota) == (
        14, 90, 100
    )
    # The faulting request is not charged.
    assert meter.usage() == 90
    assert meter.usage("signs") == 0
    assert meter.high_water == 90


def test_soft_meter_keeps_raising_high_water_after_overflow():
    meter = MemoryMeter(quota=100, strict=False)
    meter.allocate("engine", 90)
    assert not meter.overflowed
    meter.allocate("pending", 20)
    assert meter.overflowed
    assert meter.high_water == 110
    meter.allocate("signs", 4)
    meter.allocate("decoder", 16)
    assert meter.high_water == 130
    meter.release("engine", 90)
    meter.allocate("engine", 10)
    assert meter.usage() == 50
    assert meter.high_water == 130
    assert meter.overflowed


@pytest.mark.parametrize("tag", ["engine", "signs", "pending", "automata"])
def test_over_release_rejected_for_every_pool(tag):
    meter = MemoryMeter(quota=None)
    meter.allocate(tag, 10)
    with pytest.raises(ValueError):
        meter.release(tag, 11)
    assert meter.usage(tag) == 10
    assert meter.usage() == 10
