"""Cycle-accurate wormhole / virtual-channel NoC simulator.

This is the simulation substrate every experiment in the reproduction runs
on: flit-level progress per cycle, 8 VCs x 16-flit buffers per port,
three-stage pipelined switches, per-link serialisation rates and energies,
and an optional wireless fabric with MAC-arbitrated shared channels.
"""

from .config import NetworkConfig, WirelessConfig
from .engine import SimulationConfig, SimulationStallError, Simulator
from .fabric import Fabric, FabricError, WiredFabric, WirelessFabric
from .kernel import (
    ActiveSetScheduler,
    DenseScheduler,
    Scheduler,
    SimulationKernel,
    make_scheduler,
)
from .link import LinkCharacteristics, characterize_link
from .network import Network, NetworkBuildError
from .pool import PacketPool, PacketView
from .port import LOCAL_PORT, WIRELESS_PORT, InputPort, OutputPort
from .stats import SimulationResult
from .switch import Switch, SwitchConfigError
from .virtual_channel import KernelInvariantError, VirtualChannel

__all__ = [
    "ActiveSetScheduler",
    "DenseScheduler",
    "Fabric",
    "FabricError",
    "InputPort",
    "KernelInvariantError",
    "LOCAL_PORT",
    "LinkCharacteristics",
    "Network",
    "NetworkBuildError",
    "NetworkConfig",
    "OutputPort",
    "PacketPool",
    "PacketView",
    "Scheduler",
    "SimulationConfig",
    "SimulationKernel",
    "SimulationResult",
    "SimulationStallError",
    "Simulator",
    "Switch",
    "SwitchConfigError",
    "VirtualChannel",
    "WIRELESS_PORT",
    "WiredFabric",
    "WirelessConfig",
    "WirelessFabric",
    "characterize_link",
    "make_scheduler",
]
