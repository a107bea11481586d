"""Traffic model interface.

A traffic model decides, cycle by cycle, which endpoint sends a packet to
which other endpoint.  The simulation engine turns each
:class:`TrafficRequest` into a routed packet and places it in the source
endpoint's injection queue; when a packet is delivered the model gets a
callback so request/reply protocols (memory reads, cache coherence) can
generate the response traffic.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..topology.graph import TopologyGraph


@dataclass(frozen=True)
class TrafficRequest:
    """One packet the traffic model wants to inject."""

    src_endpoint: int
    dst_endpoint: int
    #: Packet length in flits; ``None`` uses the network's configured default.
    length_flits: Optional[int] = None
    is_memory_access: bool = False
    is_reply: bool = False
    traffic_class: str = "data"

    def __post_init__(self) -> None:
        if self.src_endpoint == self.dst_endpoint:
            raise ValueError(
                f"source and destination endpoint are both {self.src_endpoint}"
            )
        if self.length_flits is not None and self.length_flits <= 0:
            raise ValueError("length_flits must be positive when given")


class TrafficModel(abc.ABC):
    """Base class of all traffic generators."""

    def __init__(self, topology: TopologyGraph) -> None:
        self._topology = topology
        self._cores = [e.endpoint_id for e in topology.cores]
        self._memory_vaults = [e.endpoint_id for e in topology.memory_vaults]
        if not self._cores:
            raise ValueError("traffic model needs at least one core endpoint")

    @property
    def topology(self) -> TopologyGraph:
        """Topology the traffic is generated for."""
        return self._topology

    @property
    def cores(self) -> List[int]:
        """Core endpoint ids."""
        return list(self._cores)

    @property
    def memory_vaults(self) -> List[int]:
        """Memory vault endpoint ids."""
        return list(self._memory_vaults)

    @abc.abstractmethod
    def generate(self, cycle: int) -> Iterable[TrafficRequest]:
        """Packets to inject at the given cycle."""

    def on_packet_delivered(self, packet, cycle: int) -> Iterable[TrafficRequest]:
        """Reaction traffic (e.g. memory replies); default none.

        ``packet`` is a :class:`~repro.noc.pool.PacketView` of the delivered
        packet, valid only during this call.
        """
        return ()

    def reset(self) -> None:
        """Reset internal state before a new run; default no state."""

    def phase_token(self) -> Optional[object]:
        """Opaque marker of the model's current traffic phase.

        Phase-structured models (application phases, burst windows) return
        a value that changes whenever their coarse behaviour changes; the
        simulation kernel re-anchors its stall watchdog on every change so
        a long quiet phase following a heavy one is not mistaken for a
        deadlock.  Stationary models keep the default ``None``.
        """
        return None


def endpoint_region(topology: TopologyGraph, endpoint_id: int) -> int:
    """Region (chip / stack) an endpoint belongs to."""
    return topology.endpoint(endpoint_id).region_id


def offchip_fraction(
    topology: TopologyGraph, requests: Sequence[TrafficRequest]
) -> float:
    """Fraction of requests whose source and destination lie in different regions.

    Used by tests and experiments to confirm the off-chip traffic proportions
    quoted in Section IV-C (20 % for 1C4M, 80 % for 4C4M, 90 % for 8C4M at a
    20 % memory-access ratio).
    """
    if not requests:
        return 0.0
    offchip = 0
    for request in requests:
        src_region = endpoint_region(topology, request.src_endpoint)
        dst_region = endpoint_region(topology, request.dst_endpoint)
        if src_region != dst_region:
            offchip += 1
    return offchip / len(requests)
