"""Topology data model shared by every multichip architecture.

A :class:`TopologyGraph` describes the physical structure the cycle-accurate
simulator instantiates: switches (NoC routers) grouped into *regions*
(processing chips and memory stacks), endpoints (cores, memory vaults)
attached to switches, and links of various kinds (intra-chip mesh wires,
serial I/O, wide memory I/O, interposer traces, TSVs and wireless).

The graph is purely structural; energy/delay characterisation is attached by
the architecture factories in :mod:`repro.core.architectures` when the
simulator network is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple


class SwitchKind(str, Enum):
    """Role of a switch in the multichip system."""

    CORE = "core"
    MEMORY = "memory"


class EndpointKind(str, Enum):
    """Role of a traffic endpoint."""

    CORE = "core"
    MEMORY_VAULT = "memory_vault"


class RegionKind(str, Enum):
    """Role of a region (die) in the package."""

    PROCESSOR_CHIP = "processor_chip"
    MEMORY_STACK = "memory_stack"


class LinkKind(str, Enum):
    """Physical implementation of a link."""

    MESH = "mesh"
    SERIAL_IO = "serial_io"
    WIDE_IO = "wide_io"
    INTERPOSER = "interposer"
    TSV = "tsv"
    WIRELESS = "wireless"


@dataclass
class SwitchSpec:
    """One NoC switch (router)."""

    switch_id: int
    kind: SwitchKind
    region_id: int
    grid_x: int
    grid_y: int
    position_mm: Tuple[float, float]
    has_wireless: bool = False

    @property
    def grid(self) -> Tuple[int, int]:
        """Global grid coordinates (x, y) used by XY routing."""
        return (self.grid_x, self.grid_y)


@dataclass
class EndpointSpec:
    """A traffic source/sink attached to a switch (core or memory vault)."""

    endpoint_id: int
    kind: EndpointKind
    switch_id: int
    region_id: int


@dataclass
class RegionSpec:
    """A die in the package: a processing chip or a memory stack."""

    region_id: int
    kind: RegionKind
    name: str
    mesh_cols: int
    mesh_rows: int
    origin_mm: Tuple[float, float]
    edge_mm: float


@dataclass
class LinkSpec:
    """A bidirectional physical channel between two switches."""

    link_id: int
    src: int
    dst: int
    kind: LinkKind
    length_mm: float = 0.0

    def endpoints(self) -> Tuple[int, int]:
        """The two switch ids connected by the link."""
        return (self.src, self.dst)

    def other(self, switch_id: int) -> int:
        """The switch on the far end of the link from ``switch_id``."""
        if switch_id == self.src:
            return self.dst
        if switch_id == self.dst:
            return self.src
        raise ValueError(f"switch {switch_id} is not an endpoint of link {self.link_id}")


class TopologyError(ValueError):
    """Raised when a topology is structurally invalid."""


class TopologyGraph:
    """Mutable container for the multichip topology.

    Architecture factories build the graph incrementally: first the chips and
    memory stacks (regions, switches, endpoints, intra-region links), then the
    architecture-specific inter-region connectivity.
    """

    def __init__(self) -> None:
        self._switches: Dict[int, SwitchSpec] = {}
        self._endpoints: Dict[int, EndpointSpec] = {}
        self._regions: Dict[int, RegionSpec] = {}
        self._links: Dict[int, LinkSpec] = {}
        self._adjacency: Dict[int, List[int]] = {}
        #: Every link keyed by both (src, dst) and (dst, src), so
        #: :meth:`find_link` is one dict lookup instead of an adjacency scan.
        self._link_index: Dict[Tuple[int, int], LinkSpec] = {}
        self._switch_endpoints: Dict[int, List[int]] = {}
        self._disabled_links: set = set()
        self._next_switch_id = 0
        self._next_endpoint_id = 0
        self._next_link_id = 0

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def add_region(
        self,
        kind: RegionKind,
        name: str,
        mesh_cols: int,
        mesh_rows: int,
        origin_mm: Tuple[float, float],
        edge_mm: float,
    ) -> RegionSpec:
        """Register a new region (die) and return its spec."""
        region_id = len(self._regions)
        region = RegionSpec(
            region_id=region_id,
            kind=kind,
            name=name,
            mesh_cols=mesh_cols,
            mesh_rows=mesh_rows,
            origin_mm=origin_mm,
            edge_mm=edge_mm,
        )
        self._regions[region_id] = region
        return region

    def add_switch(
        self,
        kind: SwitchKind,
        region_id: int,
        grid_x: int,
        grid_y: int,
        position_mm: Tuple[float, float],
        has_wireless: bool = False,
    ) -> SwitchSpec:
        """Add a switch and return its spec."""
        if region_id not in self._regions:
            raise TopologyError(f"unknown region {region_id}")
        switch = SwitchSpec(
            switch_id=self._next_switch_id,
            kind=kind,
            region_id=region_id,
            grid_x=grid_x,
            grid_y=grid_y,
            position_mm=position_mm,
            has_wireless=has_wireless,
        )
        self._switches[switch.switch_id] = switch
        self._adjacency[switch.switch_id] = []
        self._switch_endpoints[switch.switch_id] = []
        self._next_switch_id += 1
        return switch

    def add_endpoint(self, kind: EndpointKind, switch_id: int) -> EndpointSpec:
        """Attach a traffic endpoint to an existing switch."""
        switch = self.switch(switch_id)
        endpoint = EndpointSpec(
            endpoint_id=self._next_endpoint_id,
            kind=kind,
            switch_id=switch_id,
            region_id=switch.region_id,
        )
        self._endpoints[endpoint.endpoint_id] = endpoint
        self._switch_endpoints[switch_id].append(endpoint.endpoint_id)
        self._next_endpoint_id += 1
        return endpoint

    def add_link(
        self,
        src: int,
        dst: int,
        kind: LinkKind,
        length_mm: float = 0.0,
    ) -> LinkSpec:
        """Add a bidirectional link between two existing switches."""
        if src == dst:
            raise TopologyError(f"cannot link switch {src} to itself")
        if src not in self._switches or dst not in self._switches:
            raise TopologyError(f"unknown switch in link ({src}, {dst})")
        if (src, dst) in self._link_index:
            raise TopologyError(f"duplicate link between {src} and {dst}")
        link = LinkSpec(
            link_id=self._next_link_id,
            src=src,
            dst=dst,
            kind=kind,
            length_mm=length_mm,
        )
        self._links[link.link_id] = link
        self._adjacency[src].append(link.link_id)
        self._adjacency[dst].append(link.link_id)
        self._link_index[(src, dst)] = link
        self._link_index[(dst, src)] = link
        self._next_link_id += 1
        return link

    def set_wireless(self, switch_id: int, has_wireless: bool = True) -> None:
        """Mark a switch as carrying a wireless interface."""
        self.switch(switch_id).has_wireless = has_wireless

    # ------------------------------------------------------------------
    # Fault support: disabling links.
    # ------------------------------------------------------------------

    def disable_link(self, link_id: int) -> None:
        """Take a link out of service (fault injection).

        Disabled links disappear from :meth:`neighbors` and
        :meth:`find_link`, so routing and connectivity queries treat the
        topology as if the link did not exist; the physical structure (and
        the simulator ports built from it) is untouched.  Use
        :meth:`enable_link` / :meth:`enable_all_links` to restore service.
        """
        self.link(link_id)  # raises TopologyError for unknown links
        self._disabled_links.add(link_id)

    def enable_link(self, link_id: int) -> None:
        """Return a disabled link to service."""
        self.link(link_id)
        self._disabled_links.discard(link_id)

    def enable_all_links(self) -> None:
        """Return every disabled link to service (end-of-run restore)."""
        self._disabled_links.clear()

    def link_enabled(self, link_id: int) -> bool:
        """Whether a link is currently in service."""
        return link_id not in self._disabled_links

    @property
    def disabled_links(self) -> List[int]:
        """Ids of all currently disabled links, sorted."""
        return sorted(self._disabled_links)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def switch(self, switch_id: int) -> SwitchSpec:
        """Look up a switch by id."""
        try:
            return self._switches[switch_id]
        except KeyError:
            raise TopologyError(f"unknown switch {switch_id}") from None

    def endpoint(self, endpoint_id: int) -> EndpointSpec:
        """Look up an endpoint by id."""
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise TopologyError(f"unknown endpoint {endpoint_id}") from None

    def region(self, region_id: int) -> RegionSpec:
        """Look up a region by id."""
        try:
            return self._regions[region_id]
        except KeyError:
            raise TopologyError(f"unknown region {region_id}") from None

    def link(self, link_id: int) -> LinkSpec:
        """Look up a link by id."""
        try:
            return self._links[link_id]
        except KeyError:
            raise TopologyError(f"unknown link {link_id}") from None

    def find_link(self, a: int, b: int, include_disabled: bool = False) -> Optional[LinkSpec]:
        """The *in-service* link between switches ``a`` and ``b``, or ``None``.

        ``include_disabled`` also finds links taken out of service by fault
        injection (used for structural queries on the physical topology).
        """
        link = self._link_index.get((a, b))
        if link is None or (not include_disabled and link.link_id in self._disabled_links):
            return None
        return link

    @property
    def switches(self) -> List[SwitchSpec]:
        """All switches, ordered by id."""
        return [self._switches[i] for i in sorted(self._switches)]

    @property
    def endpoints(self) -> List[EndpointSpec]:
        """All endpoints, ordered by id."""
        return [self._endpoints[i] for i in sorted(self._endpoints)]

    @property
    def regions(self) -> List[RegionSpec]:
        """All regions, ordered by id."""
        return [self._regions[i] for i in sorted(self._regions)]

    @property
    def links(self) -> List[LinkSpec]:
        """All links, ordered by id."""
        return [self._links[i] for i in sorted(self._links)]

    @property
    def num_switches(self) -> int:
        """Number of switches."""
        return len(self._switches)

    @property
    def num_endpoints(self) -> int:
        """Number of endpoints."""
        return len(self._endpoints)

    def neighbors(self, switch_id: int) -> List[Tuple[int, LinkSpec]]:
        """(neighbor switch id, link) pairs adjacent to a switch.

        Links taken out of service by fault injection are excluded, so
        routing and connectivity computations automatically avoid them.
        """
        result = []
        for link_id in self._adjacency.get(switch_id, ()):
            if link_id in self._disabled_links:
                continue
            link = self._links[link_id]
            result.append((link.other(switch_id), link))
        return result

    def endpoints_at(self, switch_id: int) -> List[EndpointSpec]:
        """Endpoints attached to a switch."""
        return [self._endpoints[e] for e in self._switch_endpoints.get(switch_id, ())]

    def switches_in_region(self, region_id: int) -> List[SwitchSpec]:
        """Switches belonging to one region, ordered by id."""
        return [s for s in self.switches if s.region_id == region_id]

    def endpoints_of_kind(self, kind: EndpointKind) -> List[EndpointSpec]:
        """All endpoints of a given kind, ordered by id."""
        return [e for e in self.endpoints if e.kind == kind]

    @property
    def cores(self) -> List[EndpointSpec]:
        """All processing-core endpoints."""
        return self.endpoints_of_kind(EndpointKind.CORE)

    @property
    def memory_vaults(self) -> List[EndpointSpec]:
        """All memory-vault endpoints."""
        return self.endpoints_of_kind(EndpointKind.MEMORY_VAULT)

    @property
    def wireless_switches(self) -> List[SwitchSpec]:
        """Switches equipped with a wireless interface, ordered by id."""
        return [s for s in self.switches if s.has_wireless]

    def links_of_kind(self, kind: LinkKind) -> List[LinkSpec]:
        """All links of a given kind."""
        return [link for link in self.links if link.kind == kind]

    def inter_region_links(self) -> List[LinkSpec]:
        """Links whose two endpoints lie in different regions."""
        result = []
        for link in self.links:
            if self.switch(link.src).region_id != self.switch(link.dst).region_id:
                result.append(link)
        return result

    def grid_index(self) -> Dict[Tuple[int, int], int]:
        """Map from global grid coordinates to switch id.

        Only meaningful when grid coordinates are unique, which the multichip
        builder guarantees; duplicated coordinates raise.
        """
        index: Dict[Tuple[int, int], int] = {}
        for switch in self.switches:
            key = switch.grid
            if key in index:
                raise TopologyError(f"duplicate grid coordinate {key}")
            index[key] = switch.switch_id
        return index

    # ------------------------------------------------------------------
    # Validation / export.
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` if broken.

        * every switch belongs to a known region,
        * every endpoint is attached to a known switch,
        * the graph is connected (every switch can reach every other one),
        * every core switch has at least one attached endpoint or a link.
        """
        if not self._switches:
            raise TopologyError("topology has no switches")
        for endpoint in self.endpoints:
            if endpoint.switch_id not in self._switches:
                raise TopologyError(f"endpoint {endpoint.endpoint_id} attached to unknown switch")
        # Connectivity via BFS over links (wireless links included).
        start = next(iter(self._switches))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor, _ in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != len(self._switches):
            unreachable = sorted(set(self._switches) - seen)
            raise TopologyError(
                f"topology is not connected; unreachable switches: {unreachable[:8]}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TopologyGraph(regions={len(self._regions)}, "
            f"switches={len(self._switches)}, endpoints={len(self._endpoints)}, "
            f"links={len(self._links)})"
        )
