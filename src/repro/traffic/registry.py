"""Construction of traffic patterns by name.

The experiment layer (CLI ``--pattern``, simulation tasks, sweeps) refers
to synthetic traffic patterns by a short name; :data:`PATTERNS` maps each
name to a factory that builds the corresponding :class:`~repro.traffic.base.
TrafficModel` for a topology.  A new pattern is one more entry in the
table, after which ``--pattern my-pattern`` works end to end through the
parallel runner and the result cache (the pattern name is part of every
task's cache key).

Every factory takes the same arguments, ``(topology, injection_rate,
memory_access_fraction, seed)``, so callers never special-case individual
patterns; patterns without a memory-traffic component ignore
``memory_access_fraction``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..topology.graph import TopologyGraph
from .base import TrafficModel
from .synthetic import (
    BitComplementTraffic,
    BitReversalTraffic,
    BurstyHotspotTraffic,
    HotspotTraffic,
    NeighbourTraffic,
    TransposeTraffic,
    default_hotspots,
)
from .uniform import UniformRandomTraffic

#: Factory signature: ``factory(topology, injection_rate,
#: memory_access_fraction, seed) -> TrafficModel``.
PatternFactory = Callable[[TopologyGraph, float, float, Optional[int]], TrafficModel]


class UnknownPatternError(KeyError):
    """Raised when a traffic pattern name is not in :data:`PATTERNS`."""


def _uniform(topology, injection_rate, memory_access_fraction, seed):
    return UniformRandomTraffic(topology, injection_rate, memory_access_fraction, seed=seed)


def _hotspot(topology, injection_rate, memory_access_fraction, seed):
    return HotspotTraffic(
        topology, injection_rate, hotspot_endpoints=default_hotspots(topology), seed=seed
    )


def _cores_only(model: Callable[..., TrafficModel]) -> PatternFactory:
    """The factory of a pattern that sends no memory traffic."""
    return lambda topology, injection_rate, memory_access_fraction, seed: model(
        topology, injection_rate, seed=seed
    )


#: Pattern name -> factory.
PATTERNS: Dict[str, PatternFactory] = {
    # Uniform random destinations with a memory-access share (the paper's).
    "uniform": _uniform,
    # Core (i, j) sends to core (j, i).
    "transpose": _cores_only(TransposeTraffic),
    # Core i sends to core ~i (index reversal).
    "bit-complement": _cores_only(BitComplementTraffic),
    # Core i sends to the bit-reversed core index.
    "bit-reversal": _cores_only(BitReversalTraffic),
    # Core i sends to core i+1 (best-case locality).
    "neighbour": _cores_only(NeighbourTraffic),
    # Uniform traffic with a share aimed at the central cores.
    "hotspot": _hotspot,
    # Deterministic on/off burst windows aimed at the central cores.
    "bursty-hotspot": _cores_only(BurstyHotspotTraffic),
}


def available_patterns() -> List[str]:
    """All pattern names, sorted."""
    return sorted(PATTERNS)


def pattern_factory(name: str) -> PatternFactory:
    """The factory of the named pattern; raises :class:`UnknownPatternError`."""
    try:
        return PATTERNS[name]
    except KeyError:
        known = ", ".join(available_patterns())
        raise UnknownPatternError(
            f"unknown traffic pattern {name!r}; known patterns: {known}"
        ) from None


def create_pattern(
    name: str,
    topology: TopologyGraph,
    injection_rate: float,
    memory_access_fraction: float = 0.2,
    seed: Optional[int] = None,
) -> TrafficModel:
    """Build the named traffic pattern for one topology."""
    return pattern_factory(name)(topology, injection_rate, memory_access_fraction, seed)
