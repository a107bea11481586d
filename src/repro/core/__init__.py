"""The paper's primary contribution: the wireless multichip framework API.

``SystemConfig`` describes an ``XCYM (Architecture)`` system, ``build_system``
constructs its topology and routing, ``MultichipSimulation`` runs one
cycle-accurate simulation under a synthetic pattern or application traffic,
and ``ArchitectureMetrics`` reads the paper's headline metrics from one run
or from a load sweep's sustainable-saturation point.
"""

from .architectures import BuiltSystem, build_system
from .comparison import (
    ArchitectureMetrics,
    GainReport,
    compare,
    percentage_gain,
)
from .config import (
    Architecture,
    SystemConfig,
    paper_1c4m,
    paper_4c4m,
    paper_8c4m,
)
from .framework import MultichipSimulation

__all__ = [
    "Architecture",
    "ArchitectureMetrics",
    "BuiltSystem",
    "GainReport",
    "MultichipSimulation",
    "SystemConfig",
    "build_system",
    "compare",
    "paper_1c4m",
    "paper_4c4m",
    "paper_8c4m",
    "percentage_gain",
]
