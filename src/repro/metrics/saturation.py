"""Load sweeps and saturation metrics.

The paper's bandwidth metric is the *peak achievable bandwidth per core*:
"the maximum sustainable data rate in number of bits successfully routed per
core per second at saturation with maximum load".  A load sweep runs the
same system at increasing offered loads, one runner task per load, and
:meth:`SweepSummary.point_at_sustainable_peak` picks the point that metric
is read at; the latency-versus-load curve of the same sweep is what Fig. 3
plots.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Tuple

from ..noc.stats import SimulationResult, channel_energy_mismatches


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
    # carried through the result cache so the fig8 MAC study can report
    # per-channel energy from cached points).  Channel ids are stored as
    # strings because the payload round-trips through JSON.
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
        """Accepted / offered flit rate at this point.

        The offered flit rate is the offered packet load times the nominal
        packet length; a ratio near one means the network sustains the full
        offered traffic mix at that load.
        """
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
        that stored extra provenance fields stay readable.  A known field
        of the wrong type, or per-channel energy that does not reconcile
        with its aggregates, raises :class:`ValueError` (a missing field,
        :class:`TypeError`), so the runner reads a damaged cache entry as
        a miss instead of serving it.
        """
        values = {}
        for name, value in payload.items():
            if name in _NUMBER_FIELDS:
                if type(value) not in _NUMBER_TYPES:
                    raise ValueError(f"{name} must be a number, got {value!r}")
            elif name == "channel_energy_pj":
                if not _is_channel_energy(value):
                    raise ValueError(f"{name} must map channels to numbers, got {value!r}")
            else:
                continue
            values[name] = value
        summary = cls(**values)
        mismatches = channel_energy_mismatches(
            summary.channel_energy_pj,
            summary.wireless_energy_pj,
            summary.mac_control_energy_pj,
            summary.transceiver_static_energy_pj,
        )
        if mismatches:
            raise ValueError("per-channel energy does not reconcile: " + "; ".join(mismatches))
        return summary


#: Exact types a numeric field accepts: ``bool`` is an ``int`` subclass but
#: never a counter or a rate, so it is rejected with every other type.
_NUMBER_TYPES = (int, float)
_NUMBER_FIELDS = frozenset(
    f.name for f in fields(LoadPointSummary) if f.name != "channel_energy_pj"
)


def _is_channel_energy(value: object) -> bool:
    """Whether ``value`` is a dict of ``{component: number}`` dicts."""
    if not isinstance(value, dict):
        return False
    for components in value.values():
        if not isinstance(components, dict):
            return False
        for pj in components.values():
            if type(pj) not in _NUMBER_TYPES:
                return False
    return True


@dataclass
class SweepSummary:
    """One load sweep: the per-point summaries of its tasks, by offered load.

    Every sweep is a list of tasks run by the experiment runner, and this
    folds their :class:`LoadPointSummary` records — fresh or cached — into
    the saturation analysis the figures report.
    """

    points: List[LoadPointSummary] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points.sort(key=lambda p: p.offered_load)

    @property
    def loads(self) -> List[float]:
        """Offered loads of the sweep."""
        return [p.offered_load for p in self.points]

    def point_at_sustainable_peak(self, acceptance: float = 0.9) -> LoadPointSummary:
        """The point the paper's bandwidth metric is read at.

        That metric is the "maximum sustainable data rate ... successfully
        routed per core per second at saturation": the highest accepted
        bandwidth among points where the network still delivers at least
        ``acceptance`` of the offered traffic mix.  Beyond that the accepted
        traffic no longer represents the offered pattern (long-path packets
        are squeezed out first), so those points are excluded; if no point
        qualifies, the lowest-load point is used.
        """
        if not 0.0 < acceptance <= 1.0:
            raise ValueError("acceptance must be in (0, 1]")
        if not self.points:
            raise ValueError("sweep summary has no points")
        candidates = [
            p for p in self.points if p.acceptance_ratio() >= acceptance
        ] or self.points[:1]
        return max(candidates, key=lambda p: p.bandwidth_gbps_per_core)

    def sustainable_bandwidth_gbps_per_core(self, acceptance: float = 0.9) -> float:
        """Peak *sustainable* bandwidth per core [Gb/s]; ``0.0`` if empty."""
        if not self.points:
            return 0.0
        return self.point_at_sustainable_peak(acceptance).bandwidth_gbps_per_core

    def latency_curve(self) -> List[Tuple[float, float]]:
        """(offered load, average packet latency) pairs, the Fig. 3 series."""
        return [(p.offered_load, p.average_latency_cycles) for p in self.points]

    def zero_load_latency_cycles(self) -> float:
        """Latency of the lowest-load point (the zero-load estimate)."""
        if not self.points:
            return 0.0
        return self.points[0].average_latency_cycles
