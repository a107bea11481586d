"""The cycle-accurate simulation engine (public facade).

The actual per-cycle work lives in the phase-structured
:mod:`repro.noc.kernel`; this module keeps the stable public surface —
:class:`Simulator`, :class:`SimulationConfig` and
:class:`SimulationStallError` — and owns the per-run plumbing around one
kernel execution: building the :class:`~repro.noc.network.Network` (or
resetting the one it was handed), binding the fabrics to the run's
:class:`~repro.energy.EnergyAccountant`, and settling the end-of-run
accounting (static energy, fabric statistics, wall-clock self-throughput)
into the :class:`SimulationResult`, whose books it checks before
returning them.
"""

from __future__ import annotations

import time
from typing import Optional, TYPE_CHECKING

from ..energy import EnergyAccountant
from ..routing.base import BaseRouter
from ..topology.graph import TopologyGraph
from ..traffic.base import TrafficModel
from .config import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultPlan
from .kernel import (
    SCHEDULERS,
    KernelState,
    SimulationConfig,
    SimulationKernel,
    SimulationStallError,
)
from .network import Network
from .stats import SimulationResult, channel_energy_mismatches
from .virtual_channel import KernelInvariantError

__all__ = [
    "SCHEDULERS",
    "SimulationConfig",
    "SimulationStallError",
    "Simulator",
]


class Simulator:
    """Cycle-accurate simulation of one architecture under one traffic model."""

    def __init__(
        self,
        topology: TopologyGraph,
        router: BaseRouter,
        traffic: TrafficModel,
        network_config: Optional[NetworkConfig] = None,
        simulation_config: Optional[SimulationConfig] = None,
        fault_plan: Optional["FaultPlan"] = None,
    ) -> None:
        self.topology = topology
        self.router = router
        self.traffic = traffic
        self.network_config = network_config or NetworkConfig()
        self.simulation_config = simulation_config or SimulationConfig()
        #: Optional deterministic fault plan (see :mod:`repro.faults`); an
        #: empty or absent plan leaves the run bit-identical to a simulator
        #: without the fault subsystem.
        self.fault_plan = fault_plan
        #: Optional :class:`~repro.noc.network.Network` to run on, built on
        #: ``topology`` with ``network_config``; the runner hands in one it
        #: keeps across tasks.  It is reset to its as-built state before the
        #: run.  ``None`` (the default) builds a fresh network for every run.
        self.network: Optional[Network] = None

    def run(self) -> SimulationResult:
        """Execute the configured number of cycles and return the results.

        The run uses :attr:`network`, reset to its as-built state, or a
        network built for it when none is set.
        """
        config = self.simulation_config
        net_config = self.network_config
        self.traffic.reset()

        network = self.network
        if network is None:
            network = Network(self.topology, net_config)
        else:
            network.reset()
        accountant = EnergyAccountant(technology=net_config.technology)
        for fabric in network.fabrics:
            fabric.bind_accountant(accountant)

        result = SimulationResult(
            cycles=config.cycles,
            warmup_cycles=config.warmup_cycles,
            num_cores=len(self.topology.cores),
            flit_width_bits=net_config.technology.flit_width_bits,
            clock_frequency_hz=net_config.technology.clock_frequency_hz,
            nominal_packet_length_flits=net_config.packet_length_flits,
            include_static_energy=net_config.include_static_energy,
        )

        injector = None
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            from ..faults.injector import FaultInjector

            injector = FaultInjector(self.fault_plan, network, self.router, result)

        started = time.perf_counter()
        # The kernel instantiates its own scheduler from the configuration —
        # a single construction path shared by every caller (CLI, benches,
        # tests), so no facade-side duplicate can drift.
        kernel = SimulationKernel(
            network=network,
            router=self.router,
            traffic=self.traffic,
            accountant=accountant,
            result=result,
            config=config,
            net_config=net_config,
            fault_injector=injector,
        )
        try:
            state = kernel.run()
        finally:
            if injector is not None:
                # The topology and router outlive this run; a faulted run
                # must leave no trace on the next one.
                injector.restore()
        return self._settle(state, started)

    @staticmethod
    def _settle(state: KernelState, started: float) -> SimulationResult:
        """End-of-run accounting into the state's result.

        Every run ends by checking the settled books: flit conservation
        and the per-channel energy reconciliation; a violation raises
        :class:`~repro.noc.virtual_channel.KernelInvariantError`.
        """
        config = state.config
        result = state.result
        accountant = state.accountant
        network = state.network
        result.wall_clock_seconds = time.perf_counter() - started

        result.flits_residual_end = state.residual_flits()
        accountant.record_static(
            cycles=state.cycle + 1,
            total_switch_static_mw=network.total_switch_static_power_mw,
        )
        for fabric in network.fabrics:
            fabric.finalize(result, accountant)

        result.energy = accountant.breakdown
        accounted = (
            result.flits_ejected_total
            + result.flits_residual_end
            + result.flits_dropped_unroutable
        )
        if result.flits_injected != accounted:
            raise KernelInvariantError(
                f"flit conservation broken: injected {result.flits_injected} "
                f"!= ejected {result.flits_ejected_total} "
                f"+ residual {result.flits_residual_end} "
                f"+ dropped {result.flits_dropped_unroutable}"
            )
        mismatches = channel_energy_mismatches(
            result.channel_energy_pj,
            result.energy.wireless_pj,
            result.energy.mac_control_pj,
            result.energy.transceiver_static_pj,
        )
        if mismatches:
            raise KernelInvariantError(
                "per-channel energy does not reconcile: " + "; ".join(mismatches)
            )
        if result.num_cores and config.cycles:
            result.offered_load_packets_per_core_per_cycle = result.packets_offered / (
                result.num_cores * config.cycles
            )
        return result
