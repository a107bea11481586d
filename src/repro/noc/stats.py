"""Simulation results and derived metrics.

The paper evaluates three quantities (Section IV): peak achievable bandwidth
per core, average packet energy and average packet latency.  A
:class:`SimulationResult` captures one run's raw counters and provides those
metrics as methods, so experiments and tests compute them the same way.
:func:`channel_energy_mismatches` is the one per-channel energy
reconciliation, shared by the end of every run and the result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..energy.accounting import EnergyBreakdown
from ..energy.technology import CLOCK_FREQUENCY_HZ, FLIT_WIDTH_BITS

#: Tolerances of the per-channel energy reconciliation.  The channel
#: components sum the same float terms as their aggregates, in another
#: order, so exact equality is not guaranteed — but anything beyond
#: rounding noise is an attribution bug.
RECONCILE_REL_TOL = 1e-9
RECONCILE_ABS_TOL = 1e-6


def channel_energy_mismatches(
    channel_energy: Mapping[object, Mapping[str, float]],
    wireless_pj: float,
    mac_control_pj: float,
    transceiver_static_pj: float,
) -> List[str]:
    """How a per-channel energy attribution misses its aggregate shares.

    Each component of ``channel_energy`` (``{channel: {component: pJ}}``),
    summed over the channels, must equal its aggregate in the run's
    :class:`~repro.energy.accounting.EnergyBreakdown` to rounding.  Returns
    one description per component that does not; an empty list means the
    attribution reconciles.
    """
    mismatches = []
    for name, aggregate in (
        ("wireless_pj", wireless_pj),
        ("mac_control_pj", mac_control_pj),
        ("transceiver_static_pj", transceiver_static_pj),
    ):
        total = sum(components.get(name, 0.0) for components in channel_energy.values())
        if not math.isclose(
            total, aggregate, rel_tol=RECONCILE_REL_TOL, abs_tol=RECONCILE_ABS_TOL
        ):
            mismatches.append(f"sum({name}) = {total!r} vs aggregate {aggregate!r}")
    return mismatches


@dataclass
class SimulationResult:
    """Raw counters and per-packet samples from one simulation run."""

    cycles: int
    warmup_cycles: int
    num_cores: int
    flit_width_bits: int = FLIT_WIDTH_BITS
    clock_frequency_hz: float = CLOCK_FREQUENCY_HZ
    nominal_packet_length_flits: int = 64

    packets_offered: int = 0
    packets_generated: int = 0
    packets_delivered: int = 0
    packets_delivered_measured: int = 0
    flits_injected: int = 0
    flits_ejected_measured: int = 0
    flits_ejected_total: int = 0
    flit_hops: int = 0
    wireless_flit_hops: int = 0

    #: One sample per measured packet (exact means and percentiles; the
    #: lists also feed the golden-fingerprint tests).
    latencies_cycles: List[int] = field(default_factory=list)
    network_latencies_cycles: List[int] = field(default_factory=list)
    packet_energies_pj: List[float] = field(default_factory=list)
    packet_hops: List[int] = field(default_factory=list)

    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    include_static_energy: bool = True
    mac_statistics: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Per-wireless-channel energy attribution [pJ] (empty on wired runs):
    #: ``{channel_id: {wireless_pj, mac_control_pj, transceiver_static_pj}}``.
    #: Each component sums to its aggregate in ``energy`` (checked at the
    #: end of every run by :func:`channel_energy_mismatches`).
    channel_energy_pj: Dict[int, Dict[str, float]] = field(default_factory=dict)
    transceiver_sleep_fraction: float = 0.0
    offered_load_packets_per_core_per_cycle: float = 0.0

    # Fault injection and resilience (all zero on fault-free runs).
    fault_scenario: str = "none"
    fault_rate: float = 0.0
    fault_events_applied: int = 0
    links_failed: int = 0
    links_degraded: int = 0
    transceivers_failed: int = 0
    #: Packets whose route was rebuilt around a fault (queued or in flight).
    packets_rerouted: int = 0
    #: Packets removed because no in-service path to their destination
    #: remained; every one is counted here — never a silent drop.
    packets_dropped_unroutable: int = 0
    flits_dropped_unroutable: int = 0
    #: Recovery passes that found the in-service topology partitioned.
    partitions_reported: int = 0
    #: Recovery passes that fell back to spanning-tree routing because the
    #: shortest-path recovery set had a channel-dependency cycle.
    tree_fallback_recoveries: int = 0
    #: Flits still buffered or in flight when the run ended (conservation:
    #: ``flits_injected == flits_ejected_total + flits_residual_end +
    #: flits_dropped_unroutable`` is checked at the end of every run,
    #: faulted or not).
    flits_residual_end: int = 0
    #: Wall-clock duration of the kernel loop [s] — the simulator's own
    #: cost, not a property of the simulated system, so it is excluded
    #: from equality comparisons (it differs run to run even for
    #: bit-identical simulations).
    wall_clock_seconds: float = field(default=0.0, compare=False)
    #: Per-phase wall clock [s], filled only when the run was executed with
    #: ``SimulationConfig(profile_phases=True)`` (the CLI's ``--profile``).
    #: Keys are the kernel phase names (arrival, generation, injection,
    #: fabric, allocation, and faults on faulted runs).  Simulator-side
    #: cost, so excluded from equality comparisons like the wall clock.
    phase_seconds: Dict[str, float] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------------
    # Per-packet sample recording.
    # ------------------------------------------------------------------

    def record_delivery(
        self,
        latency_cycles: int,
        network_latency_cycles: Optional[int],
        energy_pj: float,
        hops: int,
    ) -> None:
        """Record one measured packet's samples in the per-packet lists."""
        self.latencies_cycles.append(latency_cycles)
        if network_latency_cycles is not None:
            self.network_latencies_cycles.append(network_latency_cycles)
        self.packet_energies_pj.append(energy_pj)
        self.packet_hops.append(hops)

    # ------------------------------------------------------------------
    # Derived metrics.
    # ------------------------------------------------------------------

    @property
    def measurement_cycles(self) -> int:
        """Cycles in the measurement window (after warm-up)."""
        return max(0, self.cycles - self.warmup_cycles)

    def average_packet_latency_cycles(self) -> float:
        """Mean source-to-ejection latency of measured packets [cycles]."""
        if not self.latencies_cycles:
            return 0.0
        return sum(self.latencies_cycles) / len(self.latencies_cycles)

    def average_network_latency_cycles(self) -> float:
        """Mean injection-to-ejection latency of measured packets [cycles]."""
        if not self.network_latencies_cycles:
            return 0.0
        return sum(self.network_latencies_cycles) / len(self.network_latencies_cycles)

    def average_hop_count(self) -> float:
        """Mean number of link traversals of measured packets."""
        if not self.packet_hops:
            return 0.0
        return sum(self.packet_hops) / len(self.packet_hops)

    def average_packet_energy_pj(self) -> float:
        """Average packet energy [pJ], including amortised static energy.

        Dynamic energy is attributed per packet; static energy (if enabled)
        is spread evenly over the packets delivered inside the measurement
        window, mirroring the paper's inclusion of "both dynamic and static
        power consumption".
        """
        if not self.packet_energies_pj:
            return 0.0
        dynamic = sum(self.packet_energies_pj) / len(self.packet_energies_pj)
        if not self.include_static_energy:
            return dynamic
        packets = max(1, self.packets_delivered_measured)
        measured_fraction = self.measurement_cycles / self.cycles if self.cycles else 1.0
        return dynamic + self.energy.static_pj * measured_fraction / packets

    def average_packet_energy_nj(self) -> float:
        """Average packet energy [nJ]."""
        return self.average_packet_energy_pj() / 1e3

    def system_packet_energy_pj(self) -> float:
        """Total-energy-based average packet energy [pJ].

        Divides the system's total energy (dynamic plus, optionally, static)
        by the number of packet-equivalents delivered inside the measurement
        window.  Unlike :meth:`average_packet_energy_pj` this is not biased
        towards the (shorter-path) packets that happen to complete when the
        network is saturated, so architecture comparisons at saturation use
        it.
        """
        if self.flits_ejected_measured == 0:
            return 0.0
        packets_equivalent = self.flits_ejected_measured / max(1, self.nominal_packet_length_flits)
        measured_fraction = self.measurement_cycles / self.cycles if self.cycles else 1.0
        energy = self.energy.dynamic_pj * measured_fraction
        if self.include_static_energy:
            energy += self.energy.static_pj * measured_fraction
        return energy / packets_equivalent

    def system_packet_energy_nj(self) -> float:
        """Total-energy-based average packet energy [nJ]."""
        return self.system_packet_energy_pj() / 1e3

    # ------------------------------------------------------------------
    # Simulator self-throughput (how fast the simulator itself ran).
    # ------------------------------------------------------------------

    def simulated_cycles_per_second(self) -> float:
        """Simulated cycles the kernel processed per wall-clock second."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_clock_seconds

    def simulated_flits_per_second(self) -> float:
        """Flit-hops the kernel processed per wall-clock second."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.flit_hops / self.wall_clock_seconds

    def accepted_flits_per_core_per_cycle(self) -> float:
        """Accepted traffic: flits ejected per core per measurement cycle."""
        if self.measurement_cycles == 0 or self.num_cores == 0:
            return 0.0
        return self.flits_ejected_measured / (self.measurement_cycles * self.num_cores)

    def bandwidth_gbps_per_core(self) -> float:
        """Accepted bandwidth per core [Gb/s]."""
        flits_per_cycle = self.accepted_flits_per_core_per_cycle()
        return flits_per_cycle * self.flit_width_bits * self.clock_frequency_hz / 1e9

    def delivery_ratio(self) -> float:
        """Delivered packets / generated packets over the whole run."""
        if self.packets_generated == 0:
            return 0.0
        return self.packets_delivered / self.packets_generated

    def summary(self) -> Dict[str, float]:
        """Compact dictionary of the headline metrics (for reports/tests)."""
        return {
            "offered_load": self.offered_load_packets_per_core_per_cycle,
            "bandwidth_gbps_per_core": self.bandwidth_gbps_per_core(),
            "accepted_flits_per_core_per_cycle": self.accepted_flits_per_core_per_cycle(),
            "avg_packet_latency_cycles": self.average_packet_latency_cycles(),
            "avg_packet_energy_nj": self.average_packet_energy_nj(),
            "avg_hops": self.average_hop_count(),
            "packets_delivered": float(self.packets_delivered),
            "delivery_ratio": self.delivery_ratio(),
            "sleep_fraction": self.transceiver_sleep_fraction,
            "sim_cycles_per_second": self.simulated_cycles_per_second(),
            "sim_flits_per_second": self.simulated_flits_per_second(),
        }
