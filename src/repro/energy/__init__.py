"""Energy and power models for the 65 nm multichip systems.

The subpackage provides the technology constants of the paper's operating
point and analytical substitutes for the Cadence/Synopsys characterisations
the authors used, plus the accountant that totals a run's energy by
component for the average-packet-energy metric reported in the evaluation.
"""

from .accounting import EnergyAccountant, EnergyBreakdown
from .switch_power import switch_static_power_mw
from .technology import (
    DEFAULT_TECHNOLOGY,
    Technology,
    bits_per_cycle,
    cycles_per_flit,
)

__all__ = [
    "DEFAULT_TECHNOLOGY",
    "EnergyAccountant",
    "EnergyBreakdown",
    "Technology",
    "bits_per_cycle",
    "cycles_per_flit",
    "switch_static_power_mw",
]
