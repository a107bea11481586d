"""Fidelity levels: the run-length and sweep settings a scenario expands against.

Every scenario, and so every figure experiment, can run at three levels:

* ``fast`` — small cycle counts and coarse load grids; used by the test
  suite and the pytest benchmarks so the whole harness runs on a laptop in
  minutes.
* ``default`` — the level used for the numbers quoted in EXPERIMENTS.md.
* ``paper`` — the paper's own scale (10 000 iterations, the first thousand
  discarded as transients, the full load grid and application set).

The level only changes run length and sweep resolution, never the system
parameters, so results differ in noise, not in shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.config import Architecture
from ..noc.engine import SimulationConfig


@dataclass(frozen=True)
class Fidelity:
    """Run-length and sweep-resolution settings of one fidelity level."""

    name: str
    cycles: int
    warmup_cycles: int
    load_points: Tuple[float, ...]
    applications: Tuple[str, ...]
    #: Global scale on the application profiles' injection rates, chosen so
    #: the steady-state application traffic stays below network saturation
    #: (the paper notes "the interconnection network is not saturated in the
    #: steady-state" for Fig. 6).
    application_rate_scale: float = 0.25
    #: Fault severities swept by the fig7 resilience experiment (0.0 is the
    #: pristine baseline every faulted point is compared against).
    fault_rates: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3)
    #: Orthogonal wireless channel counts swept by the fig8 MAC study.
    channel_counts: Tuple[int, ...] = (1, 2, 4)
    seed: int = 7

    @property
    def simulation_config(self) -> SimulationConfig:
        """Simulation configuration at this fidelity."""
        return SimulationConfig(cycles=self.cycles, warmup_cycles=self.warmup_cycles)


_FAST = Fidelity(
    name="fast",
    cycles=1200,
    warmup_cycles=200,
    load_points=(0.0005, 0.001, 0.0015, 0.002),
    applications=("blackscholes", "canneal", "radix"),
    fault_rates=(0.0, 0.15, 0.3),
    channel_counts=(1, 2),
)

_DEFAULT = Fidelity(
    name="default",
    cycles=2500,
    warmup_cycles=400,
    load_points=(0.0002, 0.0005, 0.001, 0.0015, 0.002, 0.003, 0.004),
    applications=(
        "blackscholes",
        "bodytrack",
        "canneal",
        "dedup",
        "fluidanimate",
        "fft",
        "lu",
        "radix",
        "water",
    ),
)

_PAPER = Fidelity(
    name="paper",
    cycles=10000,
    warmup_cycles=1000,
    load_points=(0.0001, 0.0002, 0.0005, 0.001, 0.0015, 0.002, 0.003, 0.005, 0.01),
    applications=(
        "blackscholes",
        "bodytrack",
        "canneal",
        "dedup",
        "fluidanimate",
        "swaptions",
        "fft",
        "lu",
        "radix",
        "water",
        "barnes",
    ),
    fault_rates=(0.0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5),
    channel_counts=(1, 2, 4, 8),
)

FIDELITIES: Dict[str, Fidelity] = {f.name: f for f in (_FAST, _DEFAULT, _PAPER)}


def get_fidelity(name: str) -> Fidelity:
    """Look up a fidelity level by name ("fast", "default" or "paper")."""
    try:
        return FIDELITIES[name]
    except KeyError:
        known = ", ".join(sorted(FIDELITIES))
        raise KeyError(f"unknown fidelity {name!r}; known: {known}") from None


def architectures_for_comparison() -> List[Architecture]:
    """All three architectures, in the order the paper's figures list them."""
    return [Architecture.SUBSTRATE, Architecture.INTERPOSER, Architecture.WIRELESS]

