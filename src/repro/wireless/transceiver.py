"""Wireless interface (WI) transceiver model.

The paper adopts the low-power non-coherent OOK transceiver of [6]:
2.3 pJ/bit at a sustained 16 Gb/s, 0.3 mm^2 in TSMC 65 nm, BER below 1e-15.
The proposed control-packet MAC additionally power-gates receivers that are
not addressed by the current transmission ("sleepy transceivers" [17]).

This module models one WI's operating state (transmitting / receiving /
idle / asleep) and integrates its energy over a simulation run; the MAC
drives the state transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..energy.technology import (
    WIRELESS_DATA_RATE_GBPS,
    WIRELESS_ENERGY_PJ_PER_BIT,
    WIRELESS_IDLE_POWER_MW,
    WIRELESS_SLEEP_POWER_MW,
    WIRELESS_TARGET_BER,
    WIRELESS_TRANSCEIVER_AREA_MM2,
    CYCLE_TIME_S,
)


class TransceiverState(str, Enum):
    """Operating state of a WI transceiver."""

    IDLE = "idle"
    TRANSMITTING = "transmitting"
    RECEIVING = "receiving"
    SLEEPING = "sleeping"


@dataclass(frozen=True)
class TransceiverSpec:
    """Published macro-parameters of the OOK transceiver [6]."""

    data_rate_gbps: float = WIRELESS_DATA_RATE_GBPS
    energy_pj_per_bit: float = WIRELESS_ENERGY_PJ_PER_BIT
    area_mm2: float = WIRELESS_TRANSCEIVER_AREA_MM2
    target_ber: float = WIRELESS_TARGET_BER
    idle_power_mw: float = WIRELESS_IDLE_POWER_MW
    sleep_power_mw: float = WIRELESS_SLEEP_POWER_MW
    modulation: str = "OOK"

    def transfer_energy_pj(self, bits: int) -> float:
        """Dynamic energy of transferring ``bits`` over the air [pJ]."""
        if bits < 0:
            raise ValueError(f"bits must be non-negative, got {bits}")
        return bits * self.energy_pj_per_bit


@dataclass
class Transceiver:
    """One WI's transceiver with state tracking and energy integration."""

    wi_id: int
    spec: TransceiverSpec = field(default_factory=TransceiverSpec)
    power_gating: bool = True
    state: TransceiverState = TransceiverState.IDLE
    cycles_in_state: dict = field(default_factory=dict)
    dynamic_energy_pj: float = 0.0

    def set_state(self, state: TransceiverState) -> None:
        """Move to a new operating state.

        Power gating must be enabled for the SLEEPING state to be entered;
        without it (token MAC baseline) a sleep request degrades to IDLE.
        """
        if state == TransceiverState.SLEEPING and not self.power_gating:
            state = TransceiverState.IDLE
        self.state = state

    def tick(self, cycles: int = 1) -> None:
        """Account ``cycles`` clock cycles spent in the current state."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        self.cycles_in_state[self.state] = (
            self.cycles_in_state.get(self.state, 0) + cycles
        )

    def record_transfer(self, bits: int) -> float:
        """Account the dynamic energy of a transfer and return it [pJ]."""
        energy = self.spec.transfer_energy_pj(bits)
        self.dynamic_energy_pj += energy
        return energy

    def static_energy_pj(self, cycle_time_s: float = CYCLE_TIME_S) -> float:
        """Static energy from the per-state residency counters [pJ]."""
        idle_like = (
            self.cycles_in_state.get(TransceiverState.IDLE, 0)
            + self.cycles_in_state.get(TransceiverState.TRANSMITTING, 0)
            + self.cycles_in_state.get(TransceiverState.RECEIVING, 0)
        )
        sleeping = self.cycles_in_state.get(TransceiverState.SLEEPING, 0)
        idle_energy = self.spec.idle_power_mw * 1e-3 * idle_like * cycle_time_s * 1e12
        sleep_energy = self.spec.sleep_power_mw * 1e-3 * sleeping * cycle_time_s * 1e12
        return idle_energy + sleep_energy

    @property
    def total_cycles(self) -> int:
        """Total cycles accounted so far."""
        return sum(self.cycles_in_state.values())

    def sleep_fraction(self) -> float:
        """Fraction of accounted cycles spent power-gated."""
        total = self.total_cycles
        if total == 0:
            return 0.0
        return self.cycles_in_state.get(TransceiverState.SLEEPING, 0) / total
