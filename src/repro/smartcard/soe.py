"""The Secure Operating Environment abstraction.

Section 2.1's three assumptions, made concrete:

1. "the code executed by the SOE cannot be corrupted" -- implicit (the
   simulator *is* the code);
2. "the SOE has at least a small quantity of secure stable storage (to
   store secrets like encryption keys)" -- :attr:`eeprom`, a persistent
   map with realistic write latency, holding the key ring and the
   per-document version registers that defeat replay;
3. "the SOE has at least a small quantity of secure working memory (to
   protect sensitive data structures at processing time)" --
   :attr:`memory`, the quota-enforcing RAM meter.

All CPU work is charged in cycles through this object so that a session
ends with a deterministic, reproducible time breakdown.  Cycles are
integers: each ``charge_*`` method adds them to :attr:`cycles_used` and
straight onto the clock's ``card_cpu`` ledger (a
:class:`~repro.smartcard.resources.CycleLedger`, fetched at the first
charge), which turns them into seconds only when read, so the modeled
time does not depend on how the callers batch their charges.
"""

from __future__ import annotations

from repro.crypto.keys import DocumentKeys, KeyRing
from repro.smartcard.memory import DEFAULT_QUOTA, MemoryMeter
from repro.smartcard.resources import UNBOUND_LEDGER, CostModel, SimClock


class SecureOperatingEnvironment:
    """RAM + EEPROM + cycle-accounted CPU + crypto unit."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        ram_quota: int | None = DEFAULT_QUOTA,
        strict_memory: bool = True,
        clock: SimClock | None = None,
    ) -> None:
        self.cost = cost_model or CostModel()
        self.memory = MemoryMeter(ram_quota, strict=strict_memory)
        self.clock = clock or SimClock()
        self.keyring = KeyRing()
        self._version_registers: dict[str, int] = {}
        self.cycles_used = 0
        self.eeprom_bytes_written = 0
        #: The clock's ``card_cpu`` ledger once a charge fetched it.
        self._cpu = UNBOUND_LEDGER

    # -- CPU ----------------------------------------------------------------
    #
    # Each charge is its own method (profilers and the E20 tracer wrap
    # them by name) and adds its cycles inline.

    def _fetch_cpu(self, cycles: int) -> None:
        """Charge the first cycles onto the clock's ``card_cpu`` ledger,
        registering it (or after the clock was reset)."""
        self._cpu = self.clock.cycle_ledger("card_cpu", self.cost.cpu_hz)
        self._cpu.cycles += cycles

    def charge_cycles(self, cycles: int) -> None:
        """Account CPU work and advance the simulated clock."""
        self.cycles_used += cycles
        try:
            self._cpu.cycles += cycles
        except AttributeError:
            self._fetch_cpu(cycles)

    def charge_decrypt(self, nbytes: int) -> None:
        cycles = nbytes * self.cost.cycles_decrypt_per_byte
        self.cycles_used += cycles
        try:
            self._cpu.cycles += cycles
        except AttributeError:
            self._fetch_cpu(cycles)

    def charge_mac(self, nbytes: int) -> None:
        cycles = nbytes * self.cost.cycles_mac_per_byte
        self.cycles_used += cycles
        try:
            self._cpu.cycles += cycles
        except AttributeError:
            self._fetch_cpu(cycles)

    def charge_decode(self, nbytes: int) -> None:
        cycles = nbytes * self.cost.cycles_decode_per_byte
        self.cycles_used += cycles
        try:
            self._cpu.cycles += cycles
        except AttributeError:
            self._fetch_cpu(cycles)

    def charge_output(self, nbytes: int) -> None:
        cycles = nbytes * self.cost.cycles_per_output_byte
        self.cycles_used += cycles
        try:
            self._cpu.cycles += cycles
        except AttributeError:
            self._fetch_cpu(cycles)

    # -- EEPROM (secure stable storage) ----------------------------------------

    def eeprom_write(self, nbytes: int) -> None:
        """Charge a stable-storage write (slow: ~30 us/byte)."""
        self.eeprom_bytes_written += nbytes
        self.clock.add("eeprom", nbytes * self.cost.eeprom_write_seconds_per_byte)

    def provision_key(self, doc_id: str, secret: bytes) -> None:
        """Install a document secret (admin / secure channel)."""
        self.keyring.grant(doc_id, secret)
        self.eeprom_write(len(doc_id) + len(secret))

    def keys_for(self, doc_id: str) -> DocumentKeys:
        return self.keyring.keys_for(doc_id)

    # -- replay protection ------------------------------------------------------

    def version_register(self, doc_id: str) -> int:
        """Last accepted version for a document (0 if never seen)."""
        return self._version_registers.get(doc_id, 0)

    def advance_version_register(self, doc_id: str, version: int) -> None:
        """Monotonically raise the register (EEPROM write)."""
        current = self._version_registers.get(doc_id, 0)
        if version > current:
            self._version_registers[doc_id] = version
            self.eeprom_write(8)

    def admin_set_version_register(self, doc_id: str, version: int) -> None:
        """Force the register (owner recovery via the secure channel)."""
        self._version_registers[doc_id] = version
        self.eeprom_write(8)

    def revoke_key(self, doc_id: str) -> None:
        """Erase a document secret (secure-channel revocation)."""
        self.keyring.revoke(doc_id)
        self.eeprom_write(len(doc_id))
