"""High-level simulation facade — the main entry point of the library.

``MultichipSimulation`` wraps a built system (topology + router) and runs
one cycle-accurate simulation against it: a registered synthetic traffic
pattern at one offered load, or an application profile.  A load sweep is a
list of such runs submitted as tasks to :mod:`repro.parallel.runner` and
folded into a :class:`repro.metrics.SweepSummary`.
"""

from __future__ import annotations

from typing import Optional

from ..noc.config import NetworkConfig
from ..noc.engine import SimulationConfig, Simulator
from ..noc.stats import SimulationResult
from ..traffic.base import TrafficModel
from ..traffic.registry import create_pattern
from ..traffic.synfull import SynfullApplicationTraffic
from .architectures import BuiltSystem, build_system
from .config import SystemConfig


class MultichipSimulation:
    """Runs the cycle-accurate simulator against one built multichip system."""

    def __init__(
        self,
        system: BuiltSystem,
        simulation_config: Optional[SimulationConfig] = None,
    ) -> None:
        self.system = system
        self.simulation_config = simulation_config or SimulationConfig()

    # ------------------------------------------------------------------
    # Constructors.
    # ------------------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        config: SystemConfig,
        simulation_config: Optional[SimulationConfig] = None,
    ) -> "MultichipSimulation":
        """Build the system described by ``config`` and wrap it."""
        return cls(build_system(config), simulation_config)

    # ------------------------------------------------------------------
    # Properties.
    # ------------------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        """System configuration of the wrapped system."""
        return self.system.config

    @property
    def network_config(self) -> NetworkConfig:
        """NoC configuration used for every run."""
        return self.system.config.network

    # ------------------------------------------------------------------
    # Single runs.
    # ------------------------------------------------------------------

    def simulator_for(
        self, traffic: TrafficModel, fault_plan=None
    ) -> Simulator:
        """Build (but do not run) one simulator for an arbitrary traffic model.

        This is the single simulator-construction path, behind the
        ``run_*`` methods and the runner's
        :func:`~repro.parallel.runner.task_simulator` alike.  ``fault_plan``
        optionally injects a deterministic fault schedule (see
        :mod:`repro.faults`); ``None`` or an empty plan runs the pristine
        fabric.
        """
        return Simulator(
            topology=self.system.topology,
            router=self.system.router,
            traffic=traffic,
            network_config=self.network_config,
            simulation_config=self.simulation_config,
            fault_plan=fault_plan,
        )

    def pattern_traffic(
        self,
        pattern: str,
        injection_rate: float,
        memory_access_fraction: float = 0.2,
        seed: int = 1,
    ) -> TrafficModel:
        """Build one registered synthetic traffic pattern for this system."""
        return create_pattern(
            pattern,
            self.system.topology,
            injection_rate=injection_rate,
            memory_access_fraction=memory_access_fraction,
            seed=seed,
        )

    def application_traffic(
        self,
        application: str,
        rate_scale: float = 1.0,
        seed: int = 1,
    ) -> TrafficModel:
        """Build one PARSEC/SPLASH-2 application profile for this system."""
        return SynfullApplicationTraffic.from_name(
            self.system.topology,
            application,
            rate_scale=rate_scale,
            seed=seed,
        )

    def run_pattern(
        self,
        pattern: str,
        injection_rate: float,
        memory_access_fraction: float = 0.2,
        seed: int = 1,
        fault_plan=None,
    ) -> SimulationResult:
        """Run one registered synthetic traffic pattern at one offered load.

        ``pattern`` is any name from
        :func:`repro.traffic.registry.available_patterns` — this is the
        path behind the experiment CLI's ``--pattern`` flag.  Patterns
        without a memory-traffic component ignore
        ``memory_access_fraction``.
        """
        traffic = self.pattern_traffic(
            pattern,
            injection_rate=injection_rate,
            memory_access_fraction=memory_access_fraction,
            seed=seed,
        )
        return self.simulator_for(traffic, fault_plan=fault_plan).run()

    def run_application(
        self,
        application: str,
        rate_scale: float = 1.0,
        seed: int = 1,
        fault_plan=None,
    ) -> SimulationResult:
        """Run one PARSEC/SPLASH-2 application profile (SynFull substitute)."""
        traffic = self.application_traffic(
            application, rate_scale=rate_scale, seed=seed
        )
        return self.simulator_for(traffic, fault_plan=fault_plan).run()
