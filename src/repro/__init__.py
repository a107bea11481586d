"""Reproduction of "Energy-Efficient Wireless Interconnection Framework for
Multichip Systems with In-package Memory Stacks" (Shamim et al., SOCC 2017).

The package provides a cycle-accurate wormhole/VC NoC simulator, the three
multichip interconnection architectures compared in the paper (substrate
serial I/O, interposer extended mesh, and the proposed mm-wave wireless
framework), the wireless physical layer and MAC protocols, energy models,
traffic generators (uniform random and SynFull-substitute application
models) and experiment harnesses that regenerate every figure of the
evaluation.

Quick start::

    from repro import Architecture, MultichipSimulation, SystemConfig

    config = SystemConfig(architecture=Architecture.WIRELESS)
    simulation = MultichipSimulation.from_config(config)
    result = simulation.run_pattern("uniform", injection_rate=0.02)
    print(result.summary())

A load sweep is a list of :class:`repro.parallel.runner.SimulationTask`
run through :func:`repro.api.sweep` and folded into a
:class:`repro.metrics.SweepSummary` (see ``examples/compare_architectures.py``).
"""

from .core import (
    Architecture,
    ArchitectureMetrics,
    BuiltSystem,
    GainReport,
    MultichipSimulation,
    SystemConfig,
    build_system,
    compare,
    paper_1c4m,
    paper_4c4m,
    paper_8c4m,
    percentage_gain,
)
from .noc import (
    NetworkConfig,
    SimulationConfig,
    SimulationResult,
    Simulator,
    WirelessConfig,
)
from .traffic import (
    APPLICATION_PROFILES,
    SynfullApplicationTraffic,
    TrafficModel,
    TrafficRequest,
    UniformRandomTraffic,
)

__version__ = "0.14.0"

__all__ = [
    "APPLICATION_PROFILES",
    "Architecture",
    "ArchitectureMetrics",
    "BuiltSystem",
    "GainReport",
    "MultichipSimulation",
    "NetworkConfig",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SynfullApplicationTraffic",
    "SystemConfig",
    "TrafficModel",
    "TrafficRequest",
    "UniformRandomTraffic",
    "WirelessConfig",
    "__version__",
    "build_system",
    "compare",
    "paper_1c4m",
    "paper_4c4m",
    "paper_8c4m",
    "percentage_gain",
]
