"""Traffic generation: synthetic patterns and application models.

Provides the uniform random workload of the paper's synthetic evaluation,
classic skewed patterns (hotspot, transpose, bit-complement, neighbour) for
ablations, and the SynFull-substitute application traffic used for the
Fig. 6 reproduction.
"""

from .applications import (
    APPLICATION_PROFILES,
    ApplicationPhase,
    ApplicationProfile,
    get_profile,
)
from .base import TrafficModel, TrafficRequest, endpoint_region, offchip_fraction
from .registry import (
    UnknownPatternError,
    available_patterns,
    create_pattern,
)
from .rng import bernoulli, choose_other, make_rng
from .synfull import SynfullApplicationTraffic
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

__all__ = [
    "APPLICATION_PROFILES",
    "ApplicationPhase",
    "ApplicationProfile",
    "BitComplementTraffic",
    "BitReversalTraffic",
    "BurstyHotspotTraffic",
    "HotspotTraffic",
    "NeighbourTraffic",
    "SynfullApplicationTraffic",
    "TrafficModel",
    "TrafficRequest",
    "TransposeTraffic",
    "UniformRandomTraffic",
    "UnknownPatternError",
    "available_patterns",
    "bernoulli",
    "choose_other",
    "create_pattern",
    "default_hotspots",
    "endpoint_region",
    "get_profile",
    "make_rng",
    "offchip_fraction",
]
