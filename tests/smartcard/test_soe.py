"""Unit tests for the SOE abstraction."""

import pytest

from repro.smartcard.resources import CostModel, SimClock
from repro.smartcard.soe import SecureOperatingEnvironment


def test_cycle_charging_advances_clock():
    soe = SecureOperatingEnvironment(CostModel(cpu_hz=1000))
    soe.charge_cycles(500)
    assert soe.cycles_used == 500
    assert soe.clock.component("card_cpu") == pytest.approx(0.5)


def test_cycles_are_an_integer_ledger():
    soe = SecureOperatingEnvironment()
    for __ in range(1000):
        soe.charge_output(3)
    assert type(soe.cycles_used) is int
    assert soe.cycles_used == 24_000
    assert soe.clock.component("card_cpu") == 24_000 / soe.cost.cpu_hz


def test_card_cpu_appears_at_the_first_charge():
    clock = SimClock()
    clock.add("link", 0.5)
    soe = SecureOperatingEnvironment(clock=clock)
    assert "card_cpu" not in clock.breakdown()
    soe.charge_mac(10)
    assert list(clock.breakdown()) == ["link", "card_cpu"]


def test_cards_sharing_a_clock_share_its_ledger():
    clock = SimClock()
    first = SecureOperatingEnvironment(clock=clock)
    second = SecureOperatingEnvironment(clock=clock)
    first.charge_decrypt(10)
    second.charge_output(5)
    first.charge_decode(7)
    cycles = first.cycles_used + second.cycles_used
    assert clock.component("card_cpu") == cycles / first.cost.cpu_hz


def test_a_card_at_another_rate_cannot_charge_the_shared_ledger():
    clock = SimClock()
    SecureOperatingEnvironment(clock=clock).charge_mac(10)
    other = SecureOperatingEnvironment(CostModel(cpu_hz=1000), clock=clock)
    with pytest.raises(ValueError):
        other.charge_mac(10)


def test_charges_after_a_clock_reset_land_on_the_new_ledger():
    soe = SecureOperatingEnvironment(CostModel(cpu_hz=1000))
    soe.charge_cycles(500)
    soe.clock.reset()
    assert soe.clock.breakdown() == {}
    soe.charge_cycles(250)
    assert soe.clock.component("card_cpu") == 0.25
    assert soe.cycles_used == 750


def test_per_byte_charges_scale():
    soe = SecureOperatingEnvironment()
    soe.charge_decrypt(100)
    after_decrypt = soe.cycles_used
    soe.charge_mac(100)
    assert soe.cycles_used > after_decrypt


def test_eeprom_writes_are_slow():
    soe = SecureOperatingEnvironment()
    soe.eeprom_write(100)
    assert soe.eeprom_bytes_written == 100
    assert soe.clock.component("eeprom") > 0


def test_key_provisioning():
    soe = SecureOperatingEnvironment()
    soe.provision_key("doc", b"s" * 16)
    assert soe.keys_for("doc").secret == b"s" * 16
    assert soe.eeprom_bytes_written >= 19


def test_version_register_monotonic():
    soe = SecureOperatingEnvironment()
    assert soe.version_register("doc") == 0
    soe.advance_version_register("doc", 3)
    assert soe.version_register("doc") == 3
    soe.advance_version_register("doc", 2)  # lower: ignored
    assert soe.version_register("doc") == 3
    soe.advance_version_register("doc", 5)
    assert soe.version_register("doc") == 5


def test_version_register_writes_eeprom_only_on_advance():
    soe = SecureOperatingEnvironment()
    soe.advance_version_register("doc", 1)
    written = soe.eeprom_bytes_written
    soe.advance_version_register("doc", 1)
    assert soe.eeprom_bytes_written == written
