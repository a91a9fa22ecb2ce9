"""Deterministic cost model and simulated clock.

The original evaluation ([2]) ran on a cycle-accurate smart-card
simulator; we keep that spirit with a coarse but deterministic cycle
model.  Absolute numbers are calibration constants (documented below),
relative behaviour -- decryption and transfer dominating, costs linear
in bytes, automaton work linear in tokens -- reproduces the platform's.

Defaults model an e-gate-class card: 33 MHz CPU, software XTEA at ~60
cycles/byte, HMAC at ~50 cycles/byte, a 2 KB/s half-duplex serial link
with per-APDU latency, and millisecond-scale EEPROM writes.

Every CPU constant is an integer cycle count, and :class:`SimClock`
keeps the card CPU as an integer cycle ledger converted to seconds once
on read (``cycles / cpu_hz``); the link, network and EEPROM, charged
per APDU or per request, accumulate float seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class CostModel:
    """Cycle and latency constants for the simulated card."""

    cpu_hz: float = 33_000_000.0
    cycles_decrypt_per_byte: int = 60
    cycles_mac_per_byte: int = 50
    cycles_decode_per_byte: int = 10
    cycles_per_event: int = 120
    cycles_per_token_check: int = 25
    cycles_per_token_advance: int = 60
    cycles_per_condition: int = 80
    cycles_per_output_byte: int = 8
    eeprom_write_seconds_per_byte: float = 30e-6

    def seconds(self, cycles: float) -> float:
        return cycles / self.cpu_hz


@dataclass(frozen=True, slots=True)
class LinkModel:
    """The terminal <-> card channel: 2 KB/s, 255-byte APDU payloads."""

    bandwidth_bytes_per_second: float = 2048.0
    apdu_overhead_seconds: float = 0.002
    max_command_payload: int = 255
    max_response_payload: int = 256

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.bandwidth_bytes_per_second


@dataclass(frozen=True, slots=True)
class NetworkModel:
    """The terminal <-> DSP channel (broadband relative to the card)."""

    bandwidth_bytes_per_second: float = 1_000_000.0
    request_overhead_seconds: float = 0.005

    def transfer_seconds(self, nbytes: int) -> float:
        return nbytes / self.bandwidth_bytes_per_second


class CycleLedger:
    """One cycle component of a :class:`SimClock`: the integer count of
    a fixed-rate clock's cycles.

    A caller that charges on every element keeps the ledger
    :meth:`SimClock.cycle_ledger` returned and adds to :attr:`cycles`
    itself.  :meth:`SimClock.reset` retires the ledger by deleting
    ``cycles``, so such a caller's next add raises ``AttributeError``
    and it asks the clock again.
    """

    __slots__ = ("cycles", "hz")

    def __init__(self, hz: float) -> None:
        self.cycles = 0
        self.hz = hz

    def retire(self) -> None:
        del self.cycles


#: A ledger retired from birth: the ledger a caller holds before its
#: first charge, so that charge asks the clock for the real one.
UNBOUND_LEDGER = CycleLedger(1.0)
UNBOUND_LEDGER.retire()


class SimClock:
    """Accumulates simulated time per component.

    Components are coarse ("card_cpu", "link", "network", "eeprom",
    ...); the end-to-end latency model of experiment E6 is the sum --
    the link is half-duplex and the card blocks on it, so the phases
    serialize exactly as they do on the real reader.

    A component is kept either in float seconds (:meth:`add`) or as an
    integer cycle count of a fixed-rate clock (a :class:`CycleLedger`:
    :meth:`add_cycles`, or :meth:`cycle_ledger` for a caller that adds
    to it inline, as the card CPU does).  A cycle component converts to
    seconds once, when it is read (``cycles / hz``, correctly rounded),
    so its time does not depend on how its charges were split.  A
    component exists from its first charge on.
    """

    def __init__(self) -> None:
        #: float seconds, or the ledger of a cycle component
        self._ledger: dict[str, float | CycleLedger] = {}

    def add(self, component: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time cannot run backwards")
        ledger = self._ledger
        try:
            ledger[component] += seconds
        except KeyError:
            ledger[component] = seconds
        except TypeError:
            raise ValueError(
                f"{component!r} counts cycles; use add_cycles"
            ) from None

    def cycle_ledger(self, component: str, hz: float) -> CycleLedger:
        """The ledger of cycle component ``component`` at ``hz``,
        registered on first use."""
        ledger = self._ledger.get(component)
        if ledger is None:
            ledger = self._ledger[component] = CycleLedger(hz)
        elif not isinstance(ledger, CycleLedger) or ledger.hz != hz:
            raise ValueError(f"{component!r} is kept at another rate")
        return ledger

    def add_cycles(self, component: str, cycles: int, hz: float) -> None:
        """Charge ``cycles`` of a ``hz`` clock to ``component``."""
        if cycles < 0:
            raise ValueError("time cannot run backwards")
        self.cycle_ledger(component, hz).cycles += cycles

    def component(self, name: str) -> float:
        value = self._ledger.get(name, 0.0)
        if isinstance(value, CycleLedger):
            return value.cycles / value.hz
        return value

    def total(self) -> float:
        return sum(self.breakdown().values())

    def breakdown(self) -> dict[str, float]:
        return {
            name: value.cycles / value.hz if isinstance(value, CycleLedger) else value
            for name, value in self._ledger.items()
        }

    def snapshot(self) -> dict[str, float]:
        """Copy of the current component times (for session deltas)."""
        return self.breakdown()

    def since(self, snapshot: dict[str, float]) -> "SimClock":
        """A new clock holding the time elapsed since ``snapshot``.

        Sessions share one global clock (card, link, network); each
        session's metrics report the difference.  A cycle component's
        count at the snapshot is recovered exactly from its seconds
        (``round(seconds * hz)`` is exact below 2**51 cycles), so the
        delta is still an integer count.
        """
        delta = SimClock()
        for component, value in self._ledger.items():
            if isinstance(value, CycleLedger):
                hz = value.hz
                cycles = value.cycles - round(snapshot.get(component, 0.0) * hz)
                if cycles > 0:
                    delta.add_cycles(component, cycles, hz)
            else:
                elapsed = value - snapshot.get(component, 0.0)
                if elapsed > 0:
                    delta.add(component, elapsed)
        return delta

    def reset(self) -> None:
        for value in self._ledger.values():
            if isinstance(value, CycleLedger):
                value.retire()
        self._ledger.clear()


@dataclass
class SessionMetrics:
    """Everything a benchmark wants to know about one card session."""

    bytes_from_dsp: int = 0
    bytes_to_card: int = 0
    bytes_from_card: int = 0
    bytes_decrypted: int = 0
    bytes_skipped: int = 0
    chunks_sent: int = 0
    chunks_skipped: int = 0
    #: Speculation cost of a prefetch window: chunks fetched from the
    #: DSP that a skip directive then made useless (discarded at the
    #: proxy or dropped undecrypted on the card), and their ciphertext
    #: bytes.  Sequential transfers always report zero.
    chunks_wasted: int = 0
    bytes_wasted: int = 0
    #: DSP round trips issued by the proxy during the session.
    dsp_requests: int = 0
    apdu_count: int = 0
    output_bytes: int = 0
    refetch_count: int = 0
    refetch_bytes: int = 0
    ram_high_water: int = 0
    max_pending_bytes: int = 0
    card_cycles: int = 0
    #: Wall-clock dispatch counters of the product machine, the one
    #: evaluation engine (see :class:`~repro.core.runtime.EngineStats`;
    #: ``events_pumped`` equals the session's engine events).  They
    #: observe real Python dispatch cost, not modeled card time;
    #: ``tokens_touched`` and ``product_states_interned`` count the
    #: table and memo solving this session did (plus, for
    #: ``tokens_touched``, its per-node predicate work), so they depend
    #: on the sessions that ran before it under the same compiled
    #: policy.
    events_pumped: int = 0
    tokens_touched: int = 0
    product_states_interned: int = 0
    #: Set on sessions answered from the terminal's view cache: 1 when
    #: this session replayed a cached entry verbatim, and 1 when the
    #: answer was *derived* from a covering cached query by containment
    #: (``cache_semantic_hit`` implies a fabricated, card-free session:
    #: the only DSP traffic is the freshness probe).
    cache_hit: int = 0
    cache_semantic_hit: int = 0
    clock: SimClock = field(default_factory=SimClock)

    def as_dict(self) -> dict[str, float]:
        result = {
            key: value
            for key, value in self.__dict__.items()
            if isinstance(value, (int, float))
        }
        result.update(
            {f"time_{k}": v for k, v in self.clock.breakdown().items()}
        )
        result["time_total"] = self.clock.total()
        return result
