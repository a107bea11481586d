"""Wireless interface (WI) transceiver model.

The paper adopts the low-power non-coherent OOK transceiver of [6]:
2.3 pJ/bit at a sustained 16 Gb/s, 0.3 mm^2 in TSMC 65 nm, BER below 1e-15.
The proposed control-packet MAC additionally power-gates receivers that are
not addressed by the current transmission ("sleepy transceivers" [17]).

This module integrates one WI's static energy over a simulation run.
Transmitting, receiving and idling all draw the idle power; only a
power-gated (asleep) transceiver draws less.  So a transceiver's residency
is a sequence of asleep and awake *runs*: it keeps the settled totals and
the cycle its current run began, and the wireless fabric starts a new run
only when the MAC's transmitter or intended receivers change.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..energy.technology import CYCLE_TIME_S, WIRELESS_IDLE_POWER_MW, WIRELESS_SLEEP_POWER_MW


@dataclass
class Transceiver:
    """One WI's transceiver: asleep/awake runs and their static energy."""

    wi_id: int
    #: Power drawn awake (transmitting, receiving or idle) and power-gated [mW].
    idle_power_mw: float = WIRELESS_IDLE_POWER_MW
    sleep_power_mw: float = WIRELESS_SLEEP_POWER_MW
    power_gating: bool = True
    #: Whether the current run is power-gated.
    asleep: bool = False
    #: Cycle the current run began; it is not yet in the totals below.
    run_start: int = 0
    #: Cycles of the settled runs, and how many of them were asleep.
    total_cycles: int = 0
    asleep_cycles: int = 0

    def set_asleep(self, asleep: bool, cycle: int) -> None:
        """Be asleep (or awake) from ``cycle`` on.

        Settles the current run and starts a new one when the state
        changes.  Power gating must be enabled to sleep; without it (token
        MAC baseline) a sleep request keeps the transceiver awake.
        """
        asleep = asleep and self.power_gating
        if asleep != self.asleep:
            self.settle(cycle)
            self.asleep = asleep

    def settle(self, cycle: int) -> None:
        """Move the current run's cycles before ``cycle`` into the totals."""
        cycles = cycle - self.run_start
        if cycles < 0:
            raise ValueError(f"cannot settle at cycle {cycle}: the run began at {self.run_start}")
        self.total_cycles += cycles
        if self.asleep:
            self.asleep_cycles += cycles
        self.run_start = cycle

    def static_energy_pj(self, cycle_time_s: float = CYCLE_TIME_S) -> float:
        """Static energy of the settled runs [pJ]."""
        awake = self.total_cycles - self.asleep_cycles
        idle_energy = self.idle_power_mw * 1e-3 * awake * cycle_time_s * 1e12
        sleep_energy = self.sleep_power_mw * 1e-3 * self.asleep_cycles * cycle_time_s * 1e12
        return idle_energy + sleep_energy

    def sleep_fraction(self) -> float:
        """Fraction of the settled cycles spent power-gated."""
        if self.total_cycles == 0:
            return 0.0
        return self.asleep_cycles / self.total_cycles
