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
