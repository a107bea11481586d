"""Load sweeps and saturation metrics.

The paper's bandwidth metric is the *peak achievable bandwidth per core*:
"the maximum sustainable data rate in number of bits successfully routed per
core per second at saturation with maximum load".  A load sweep runs the
same system at increasing offered loads and takes the maximum accepted
throughput as the peak; the latency-versus-load curve of the same sweep is
what Fig. 3 plots.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..noc.stats import SimulationResult


@dataclass(frozen=True)
class LoadPoint:
    """One point of a load sweep."""

    offered_load: float
    result: SimulationResult

    @property
    def bandwidth_gbps_per_core(self) -> float:
        """Accepted bandwidth per core at this offered load."""
        return self.result.bandwidth_gbps_per_core()

    @property
    def average_latency_cycles(self) -> float:
        """Average packet latency at this offered load."""
        return self.result.average_packet_latency_cycles()


@dataclass
class LoadSweepResult:
    """All points of one load sweep, in increasing offered-load order.

    Holds the full :class:`SimulationResult` of every point.  All
    saturation *analysis* (acceptance, sustainable peak, latency curve) is
    delegated to :class:`SweepSummary`, the compact per-point view the
    parallel runner caches, so serial sweeps and reassembled cached sweeps
    share one implementation and stay bit-identical by construction.
    """

    points: List[LoadPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points.sort(key=lambda p: p.offered_load)

    @property
    def loads(self) -> List[float]:
        """Offered loads of the sweep."""
        return [p.offered_load for p in self.points]

    def summary(self) -> "SweepSummary":
        """The compact per-point summary view of this sweep."""
        return SweepSummary.from_load_sweep(self)

    def peak_bandwidth_gbps_per_core(self) -> float:
        """Peak accepted bandwidth per core over the sweep [Gb/s]."""
        return self.summary().peak_bandwidth_gbps_per_core()

    def acceptance_ratio(self, point: LoadPoint) -> float:
        """Accepted / offered flit rate at one load point.

        The offered flit rate is the offered packet load times the nominal
        packet length; a ratio near one means the network sustains the full
        offered traffic mix at that load.
        """
        return LoadPointSummary.from_result(
            point.offered_load, point.result
        ).acceptance_ratio()

    def sustainable_points(self, acceptance: float = 0.9) -> List[LoadPoint]:
        """Load points whose offered traffic mix is (almost) fully delivered."""
        if not 0.0 < acceptance <= 1.0:
            raise ValueError("acceptance must be in (0, 1]")
        return [p for p in self.points if self.acceptance_ratio(p) >= acceptance]

    def sustainable_bandwidth_gbps_per_core(self, acceptance: float = 0.9) -> float:
        """Peak *sustainable* bandwidth per core [Gb/s].

        This is the paper's "maximum sustainable data rate ... successfully
        routed per core per second at saturation": the highest accepted
        bandwidth among load points where the network still delivers (at
        least ``acceptance`` of) the full offered traffic mix.  Beyond that
        point the accepted traffic is no longer representative of the
        offered pattern (long-path packets are squeezed out first), so those
        points are excluded; if no point qualifies the lowest-load point is
        used.
        """
        return self.summary().sustainable_bandwidth_gbps_per_core(acceptance)

    def latency_curve(self) -> List[Tuple[float, float]]:
        """(offered load, average packet latency) pairs, the Fig. 3 series."""
        return [(p.offered_load, p.average_latency_cycles) for p in self.points]

    def zero_load_latency_cycles(self) -> float:
        """Latency of the lowest-load point (the zero-load estimate)."""
        if not self.points:
            return 0.0
        return self.points[0].average_latency_cycles

    def saturation_load(self, latency_factor: float = 3.0) -> Optional[float]:
        """First offered load whose latency exceeds ``latency_factor`` x zero-load.

        Returns ``None`` if the network never saturates within the sweep.
        """
        return self.summary().saturation_load(latency_factor)


@dataclass(frozen=True)
class LoadPointSummary:
    """JSON-serialisable summary of one simulation run at one offered load.

    This is the unit of result the parallel experiment runner caches on
    disk: it carries exactly the counters the figure experiments derive
    their metrics from, so a cached point reproduces the same numbers as
    the :class:`SimulationResult` it was taken from, bit for bit.
    """

    offered_load: float
    nominal_packet_length_flits: int
    accepted_flits_per_core_per_cycle: float
    bandwidth_gbps_per_core: float
    average_latency_cycles: float
    average_packet_energy_nj: float
    system_packet_energy_nj: float
    packets_delivered: int
    delivery_ratio: float
    # Resilience counters (all zero on fault-free runs; carried through the
    # result cache so the fig7 sweep can report them from cached points).
    fault_events_applied: int = 0
    links_failed: int = 0
    transceivers_failed: int = 0
    packets_rerouted: int = 0
    packets_dropped_unroutable: int = 0
    partitions_reported: int = 0
    # Wireless-plane energy attribution (all zero/empty on wired runs;
    # carried through the result cache so the fig8 MAC study can report —
    # and reconcile — per-channel energy from cached points).  Channel ids
    # are stored as strings because the payload round-trips through JSON.
    wireless_energy_pj: float = 0.0
    mac_control_energy_pj: float = 0.0
    transceiver_static_energy_pj: float = 0.0
    channel_energy_pj: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @classmethod
    def from_result(
        cls, offered_load: float, result: SimulationResult
    ) -> "LoadPointSummary":
        """Summarise one simulation result at the given offered load."""
        return cls(
            offered_load=offered_load,
            nominal_packet_length_flits=result.nominal_packet_length_flits,
            accepted_flits_per_core_per_cycle=(
                result.accepted_flits_per_core_per_cycle()
            ),
            bandwidth_gbps_per_core=result.bandwidth_gbps_per_core(),
            average_latency_cycles=result.average_packet_latency_cycles(),
            average_packet_energy_nj=result.average_packet_energy_nj(),
            system_packet_energy_nj=result.system_packet_energy_nj(),
            packets_delivered=result.packets_delivered,
            delivery_ratio=result.delivery_ratio(),
            fault_events_applied=result.fault_events_applied,
            links_failed=result.links_failed,
            transceivers_failed=result.transceivers_failed,
            packets_rerouted=result.packets_rerouted,
            packets_dropped_unroutable=result.packets_dropped_unroutable,
            partitions_reported=result.partitions_reported,
            wireless_energy_pj=result.energy.wireless_pj,
            mac_control_energy_pj=result.energy.mac_control_pj,
            transceiver_static_energy_pj=result.energy.transceiver_static_pj,
            channel_energy_pj={
                str(channel_id): dict(components)
                for channel_id, components in result.channel_energy_pj.items()
            },
        )

    def acceptance_ratio(self) -> float:
        """Accepted / offered flit rate (same arithmetic as the load sweep)."""
        offered_flits = self.offered_load * self.nominal_packet_length_flits
        if offered_flits <= 0:
            return 1.0
        return self.accepted_flits_per_core_per_cycle / offered_flits

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view, the JSON payload stored by the result cache."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "LoadPointSummary":
        """Rebuild a summary from its :meth:`as_dict` payload.

        Unknown keys are ignored, so entries written by older versions
        that stored extra provenance fields stay readable.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class SweepSummary:
    """A load sweep reassembled from per-point summaries.

    Mirrors the saturation analysis of :class:`LoadSweepResult` (same
    acceptance criterion, same sustainable-peak selection) but holds only
    the compact :class:`LoadPointSummary` records, so it can be assembled
    from cached / parallel-executed tasks and round-trips through JSON.
    """

    points: List[LoadPointSummary] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points.sort(key=lambda p: p.offered_load)

    @classmethod
    def from_load_sweep(cls, sweep: "LoadSweepResult") -> "SweepSummary":
        """Summarise every point of a full (serial) load sweep."""
        return cls(
            points=[
                LoadPointSummary.from_result(p.offered_load, p.result)
                for p in sweep.points
            ]
        )

    @property
    def loads(self) -> List[float]:
        """Offered loads of the sweep."""
        return [p.offered_load for p in self.points]

    def peak_bandwidth_gbps_per_core(self) -> float:
        """Peak accepted bandwidth per core over the sweep [Gb/s]."""
        if not self.points:
            return 0.0
        return max(p.bandwidth_gbps_per_core for p in self.points)

    def sustainable_points(self, acceptance: float = 0.9) -> List[LoadPointSummary]:
        """Points whose offered traffic mix is (almost) fully delivered."""
        if not 0.0 < acceptance <= 1.0:
            raise ValueError("acceptance must be in (0, 1]")
        return [p for p in self.points if p.acceptance_ratio() >= acceptance]

    def sustainable_bandwidth_gbps_per_core(self, acceptance: float = 0.9) -> float:
        """Peak *sustainable* bandwidth per core [Gb/s].

        Identical selection rule to
        :meth:`LoadSweepResult.sustainable_bandwidth_gbps_per_core`.
        """
        candidates = self.sustainable_points(acceptance)
        if not candidates:
            candidates = self.points[:1]
        if not candidates:
            return 0.0
        return max(p.bandwidth_gbps_per_core for p in candidates)

    def index_of_sustainable_peak(self, acceptance: float = 0.9) -> int:
        """Index (into the sorted points) of the sustainable-peak point.

        Lets callers holding richer per-point objects sorted the same way
        (e.g. :class:`LoadSweepResult`) locate the selected point without
        re-implementing the selection rule.
        """
        if not 0.0 < acceptance <= 1.0:
            raise ValueError("acceptance must be in (0, 1]")
        candidates = [
            index
            for index, point in enumerate(self.points)
            if point.acceptance_ratio() >= acceptance
        ]
        if not candidates and self.points:
            candidates = [0]
        if not candidates:
            raise ValueError("sweep summary has no points")
        return max(candidates, key=lambda i: self.points[i].bandwidth_gbps_per_core)

    def point_at_sustainable_peak(self, acceptance: float = 0.9) -> LoadPointSummary:
        """The summary at the sustainable-peak load point."""
        return self.points[self.index_of_sustainable_peak(acceptance)]

    def latency_curve(self) -> List[Tuple[float, float]]:
        """(offered load, average packet latency) pairs, the Fig. 3 series."""
        return [(p.offered_load, p.average_latency_cycles) for p in self.points]

    def zero_load_latency_cycles(self) -> float:
        """Latency of the lowest-load point (the zero-load estimate)."""
        if not self.points:
            return 0.0
        return self.points[0].average_latency_cycles

    def saturation_load(self, latency_factor: float = 3.0) -> Optional[float]:
        """First offered load whose latency exceeds ``latency_factor`` x zero-load."""
        if latency_factor <= 1.0:
            raise ValueError("latency_factor must exceed 1")
        baseline = self.zero_load_latency_cycles()
        if baseline <= 0:
            return None
        for point in self.points:
            if point.average_latency_cycles > latency_factor * baseline:
                return point.offered_load
        return None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view (list of per-point payloads)."""
        return {"points": [p.as_dict() for p in self.points]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SweepSummary":
        """Rebuild a sweep summary from its :meth:`as_dict` payload."""
        return cls(
            points=[LoadPointSummary.from_dict(p) for p in payload.get("points", [])]
        )


def default_load_points(
    low: float = 0.0005, high: float = 0.05, count: int = 7
) -> List[float]:
    """Logarithmically spaced offered loads, mirroring the Fig. 3 axis."""
    if low <= 0 or high <= 0 or high <= low:
        raise ValueError("need 0 < low < high")
    if count < 2:
        raise ValueError("count must be at least 2")
    ratio = math.log(high / low)
    return [low * math.exp(ratio * i / (count - 1)) for i in range(count)]


def run_load_sweep(
    run_at_load: Callable[[float], SimulationResult],
    loads: Sequence[float],
) -> LoadSweepResult:
    """Run ``run_at_load`` at every offered load and collect the results."""
    if not loads:
        raise ValueError("loads must not be empty")
    points = [LoadPoint(offered_load=load, result=run_at_load(load)) for load in loads]
    return LoadSweepResult(points=points)
