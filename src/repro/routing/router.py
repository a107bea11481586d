"""Default shortest-path router of the reproduction.

``ShortestPathRouter`` reproduces the routing scheme of Section III-C:
switch-level shortest paths are pre-computed with Dijkstra's algorithm over
the whole multichip topology (wired and wireless links together, weighted by
their per-hop cost), and packets are forwarded along those pre-computed
paths.  Two refinements keep the simulation well behaved:

* equal-cost alternatives (e.g. parallel interposer links between two chips)
  are chosen by a deterministic per-pair hash, spreading load without
  sacrificing reproducibility, and
* every maximal intra-region mesh segment of a path is rewritten into its
  canonical X-then-Y form of identical length, which makes the intra-chip
  portion dimension-ordered and hence free of cyclic channel dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..topology.graph import LinkKind, TopologyGraph
from .base import BaseRouter, RoutingError
from .dijkstra import ShortestPathForest
from .xy import RegionGridIndex, xy_path


class ShortestPathRouter(BaseRouter):
    """Dijkstra shortest paths + XY canonicalisation of mesh segments."""

    def __init__(self, graph: TopologyGraph, link_weights=None, canonicalize_xy: bool = True) -> None:
        super().__init__(graph, link_weights)
        self._canonicalize_xy = canonicalize_xy
        self._forests: Dict[int, ShortestPathForest] = {}
        self._grid_index = RegionGridIndex(graph)
        self._region_of: Dict[int, int] = {s.switch_id: s.region_id for s in graph.switches}
        #: Canonical XY run per (run start, run end); ``None`` when the
        #: rewrite was rejected (a disabled link or a missing grid position).
        self._xy_runs: Dict[Tuple[int, int], Optional[List[int]]] = {}
        #: Both directions of every in-service intra-region mesh link.
        self._mesh_hops: Optional[Set[Tuple[int, int]]] = None

    @property
    def canonicalize_xy(self) -> bool:
        """Whether intra-region mesh segments are rewritten to XY order."""
        return self._canonicalize_xy

    def _forest(self, source: int) -> ShortestPathForest:
        forest = self._forests.get(source)
        if forest is None:
            adjacency = self.weighted_adjacency()  # notes this generation's cheapest hop
            forest = ShortestPathForest(adjacency, source, cheapest_hop=self._cheapest_hop)
            self._forests[source] = forest
        return forest

    def _compute_route(self, src_switch: int, dst_switch: int) -> List[int]:
        for sid in (src_switch, dst_switch):
            if sid not in self._region_of:
                raise RoutingError(f"switch {sid} is not in the topology")
        if src_switch == dst_switch:
            return [src_switch]
        forest = self._forest(src_switch)
        path = forest.path_to(dst_switch, selector=dst_switch)
        if self._canonicalize_xy:
            path = self._canonicalize(path)
        return path

    def clear_cache(self) -> None:
        """Drop cached routes, shortest-path forests, XY runs and mesh hops."""
        super().clear_cache()
        self._forests.clear()
        self._xy_runs.clear()
        self._mesh_hops = None

    # ------------------------------------------------------------------
    # XY canonicalisation.
    # ------------------------------------------------------------------

    def _in_service_mesh_hops(self) -> Set[Tuple[int, int]]:
        """The hops a mesh run may take; built once per cache generation."""
        hops = self._mesh_hops
        if hops is None:
            graph = self._graph
            region_of = self._region_of
            hops = set()
            for link in graph.links_of_kind(LinkKind.MESH):
                if graph.link_enabled(link.link_id) and region_of[link.src] == region_of[link.dst]:
                    hops.add((link.src, link.dst))
                    hops.add((link.dst, link.src))
            self._mesh_hops = hops
        return hops

    def _canonicalize(self, path: List[int]) -> List[int]:
        """Rewrite maximal same-region mesh runs into X-then-Y order."""
        mesh_hops = self._in_service_mesh_hops()
        result: List[int] = [path[0]]
        run_start = 0
        index = 1
        while index < len(path):
            prev = path[index - 1]
            here = path[index]
            if (prev, here) in mesh_hops:
                index += 1
                continue
            if self._graph.find_link(prev, here) is None:
                raise RoutingError(f"route uses missing link ({prev}, {here})")
            # The mesh run path[run_start .. index-1] ends here; canonicalise
            # it, then emit the non-mesh hop verbatim.
            self._extend_with_run(result, path, run_start, index - 1)
            result.append(here)
            run_start = index
            index += 1
        self._extend_with_run(result, path, run_start, len(path) - 1)
        return result

    def _extend_with_run(
        self, result: List[int], path: List[int], start: int, end: int
    ) -> None:
        """Append the canonical form of ``path[start..end]`` (skipping its head).

        The canonical X-then-Y rewrite is only applied when every link it
        would use is in service; when fault injection has disabled a mesh
        link on the XY path, the Dijkstra-computed run — which already avoids
        disabled links — is kept verbatim.  On a healthy topology the rewrite
        always applies, so fault-free routes are unchanged.
        """
        if end <= start:
            return
        key = (path[start], path[end])
        if key in self._xy_runs:
            canonical = self._xy_runs[key]
        else:
            canonical = self._canonical_run(*key)
            self._xy_runs[key] = canonical
        if canonical is not None:
            result.extend(canonical[1:])
        else:
            result.extend(path[start + 1 : end + 1])

    def _canonical_run(self, src: int, dst: int) -> Optional[List[int]]:
        """The XY path from ``src`` to ``dst`` if every link on it is in service."""
        graph = self._graph
        try:
            canonical = xy_path(graph, self._grid_index, src, dst)
        except RoutingError:
            return None
        if all(graph.find_link(a, b) is not None for a, b in zip(canonical, canonical[1:])):
            return canonical
        return None
