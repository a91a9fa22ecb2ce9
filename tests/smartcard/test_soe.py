"""Unit tests for the SOE abstraction."""

import pytest

from repro.smartcard.resources import CostModel
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
