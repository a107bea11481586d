"""System-level energy accounting for one simulation run.

The paper's headline energy metric is the *average packet energy*: "the
energy consumed to transfer an entire packet from source to destination in
the multichip system on an average".  The accountant accumulates the
run's totals by component into an :class:`EnergyBreakdown`:

* dynamic energy per flit-hop (switch traversal + link/transceiver energy),
  which the simulation kernel adds inline and also attributes to the
  packet that moved;
* MAC control energy, charged by the wireless fabric;
* static energy (switch leakage, idle/sleeping transceiver residency),
  charged once when the run settles.

The per-packet average, with or without the static share, is
:meth:`repro.noc.stats.SimulationResult.average_packet_energy_pj`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .technology import DEFAULT_TECHNOLOGY, Technology


@dataclass
class EnergyBreakdown:
    """Aggregated energy totals for one simulation run [pJ]."""

    switch_dynamic_pj: float = 0.0
    link_pj: float = 0.0
    wireless_pj: float = 0.0
    mac_control_pj: float = 0.0
    switch_static_pj: float = 0.0
    transceiver_static_pj: float = 0.0

    @property
    def dynamic_pj(self) -> float:
        """Total dynamic (data-dependent) energy."""
        return self.switch_dynamic_pj + self.link_pj + self.wireless_pj + self.mac_control_pj

    @property
    def static_pj(self) -> float:
        """Total static (time-dependent) energy."""
        return self.switch_static_pj + self.transceiver_static_pj

    @property
    def total_pj(self) -> float:
        """Total energy."""
        return self.dynamic_pj + self.static_pj

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view used by reports and tests."""
        return {
            "switch_dynamic_pj": self.switch_dynamic_pj,
            "link_pj": self.link_pj,
            "wireless_pj": self.wireless_pj,
            "mac_control_pj": self.mac_control_pj,
            "switch_static_pj": self.switch_static_pj,
            "transceiver_static_pj": self.transceiver_static_pj,
            "dynamic_pj": self.dynamic_pj,
            "static_pj": self.static_pj,
            "total_pj": self.total_pj,
        }


class EnergyAccountant:
    """Accumulates energy during a simulation run.

    Parameters
    ----------
    technology:
        Technology constants (cycle time, per-bit figures).
    """

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self._technology = technology
        self._breakdown = EnergyBreakdown()

    @property
    def breakdown(self) -> EnergyBreakdown:
        """The running energy totals."""
        return self._breakdown

    # ------------------------------------------------------------------
    # Dynamic energy events.
    # ------------------------------------------------------------------

    def record_mac_control(self, energy_pj: float) -> None:
        """A MAC control packet (or token) was broadcast."""
        self._breakdown.mac_control_pj += energy_pj

    # ------------------------------------------------------------------
    # Static energy (called once when a run finishes).
    # ------------------------------------------------------------------

    def record_static(self, cycles: int, total_switch_static_mw: float) -> None:
        """Charge switch static power for ``cycles`` simulated cycles."""
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        seconds = cycles * self._technology.cycle_time_s
        self._breakdown.switch_static_pj += total_switch_static_mw * 1e-3 * seconds * 1e12

    def add_transceiver_static_energy(self, energy_pj: float) -> None:
        """Add pre-integrated transceiver static energy (idle/sleep residency)."""
        if energy_pj < 0:
            raise ValueError(f"energy_pj must be non-negative, got {energy_pj}")
        self._breakdown.transceiver_static_pj += energy_pj
