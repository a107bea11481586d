"""Named fault scenarios, constructed by name from a table.

The experiment layer (CLI ``--faults``, simulation tasks, the fig7
resilience sweep) refers to fault scenarios by a short name, as it does to
traffic patterns and MAC protocols; :data:`FAULT_SCENARIOS` maps each name
to a factory that builds a deterministic
:class:`~repro.faults.plan.FaultPlan` for a topology.  A new scenario is one more entry in the table, after
which ``--faults my-scenario`` works end to end through the parallel
runner and the result cache (the scenario name and fault rate are part of
every task's cache key).

Every factory accepts the same keyword set (``fault_rate``, ``seed``,
``cycles``) and derives all randomness from ``seed`` via
:func:`repro.traffic.rng.make_rng`, so plans are bit-reproducible across
processes and hosts.  Scenarios that would have to disconnect the topology
to reach the requested rate stop early instead: partition stress is the
job of the ``cascading`` scenario, which is allowed to cut the network
apart (the injector then *reports* the partition and accounts every
undeliverable packet — never a silent drop).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Set

from ..topology.graph import LinkKind, LinkSpec, RegionKind, TopologyGraph
from ..traffic.rng import bernoulli, make_rng
from .plan import FaultEvent, FaultKind, FaultPlan

#: Factory signature: ``factory(topology, *, fault_rate, seed, cycles)
#: -> FaultPlan``.
ScenarioFactory = Callable[..., FaultPlan]

#: Scenario used by default when an experiment wants "some faults" without
#: naming a scenario (the fig7 resilience sweep).
DEFAULT_SCENARIO = "random-links"

#: Severity used when a fault scenario is given without a rate (the CLI's
#: bare ``--faults`` and the built-in scenario documents).
DEFAULT_FAULT_RATE = 0.1


class UnknownScenarioError(KeyError):
    """Raised when a fault-scenario name is not in :data:`FAULT_SCENARIOS`."""


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------


def _connected_without(topology: TopologyGraph, removed: Set[int]) -> bool:
    """Whether the topology stays connected with ``removed`` links also gone."""
    switches = topology.switches
    if not switches:
        return True
    start = switches[0].switch_id
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbor, link in topology.neighbors(current):
            if link.link_id in removed or neighbor in seen:
                continue
            seen.add(neighbor)
            frontier.append(neighbor)
    return len(seen) == topology.num_switches


def _joined_without(topology: TopologyGraph, link: LinkSpec, removed: Set[int]) -> bool:
    """Whether ``link``'s endpoints stay joined with ``removed`` links gone.

    On a topology connected without ``removed - {link}``, this is whether
    it stays connected without ``removed``: the breadth-first search stops
    at the far endpoint, usually a few hops away, instead of visiting every
    switch as :func:`_connected_without` does.
    """
    target = link.dst
    seen = {link.src}
    frontier = [link.src]
    while frontier:
        reached = []
        for current in frontier:
            for neighbor, hop in topology.neighbors(current):
                if hop.link_id in removed or neighbor in seen:
                    continue
                if neighbor == target:
                    return True
                seen.add(neighbor)
                reached.append(neighbor)
        frontier = reached
    return False


def _wired_links(topology: TopologyGraph) -> List[LinkSpec]:
    """All in-service wired (non-wireless) links, in id order."""
    return [
        link
        for link in topology.links
        if link.kind != LinkKind.WIRELESS and topology.link_enabled(link.link_id)
    ]


def _wireless_links_at(topology: TopologyGraph, switch_id: int) -> List[LinkSpec]:
    """Wireless links incident to one switch, in id order."""
    return [
        link
        for link in topology.links
        if link.kind == LinkKind.WIRELESS and switch_id in link.endpoints()
    ]


def _degrade_factor(fault_rate: float) -> int:
    """Serialisation slow-down for a degradation at the given severity."""
    return 1 + max(1, round(3 * fault_rate))


# ----------------------------------------------------------------------
# Built-in scenarios.
# ----------------------------------------------------------------------


def _make_none(
    topology: TopologyGraph, *, fault_rate: float, seed: int, cycles: int
) -> FaultPlan:
    """Pristine fabric, no faults."""
    return FaultPlan(scenario="none", fault_rate=fault_rate, seed=seed, events=())


def _make_random_links(
    topology: TopologyGraph, *, fault_rate: float, seed: int, cycles: int
) -> FaultPlan:
    """Each wired link fails with probability ``fault_rate`` mid-run.

    Failures that would disconnect the topology are skipped
    (connectivity-preserving).  Connectivity is checked in full once; the
    failures taken keep it, so each candidate only needs its endpoints to
    stay joined.
    """
    rng = make_rng(seed)
    window_lo = max(1, cycles // 10)
    window_hi = max(window_lo + 1, cycles // 2)
    events: List[FaultEvent] = []
    removed: Set[int] = set()
    connected = _connected_without(topology, removed)
    for link in _wired_links(topology):
        if not bernoulli(rng, fault_rate):
            continue
        at_cycle = rng.randrange(window_lo, window_hi)
        if not connected or not _joined_without(topology, link, removed | {link.link_id}):
            continue
        removed.add(link.link_id)
        events.append(
            FaultEvent(
                kind=FaultKind.LINK_DOWN, at_cycle=at_cycle, link_id=link.link_id
            )
        )
    events.sort(key=lambda e: (e.at_cycle, e.link_id))
    return FaultPlan(
        scenario="random-links", fault_rate=fault_rate, seed=seed, events=tuple(events)
    )


def _make_hub_transceiver_loss(
    topology: TopologyGraph, *, fault_rate: float, seed: int, cycles: int
) -> FaultPlan:
    """Kill ``ceil(fault_rate * num_WIs)`` transceivers mid-run, memory hubs first.

    WIs whose loss would disconnect the topology are skipped; on the wired
    architectures the plan is empty.
    """
    wis = topology.wireless_switches
    events: List[FaultEvent] = []
    if wis and fault_rate > 0.0:
        # Memory-stack WIs concentrate all memory traffic, so they are the
        # "hubs" this scenario takes out first; within each group the order
        # is a deterministic shuffle of the ids.
        rng = make_rng(seed)
        memory_regions = {
            r.region_id
            for r in topology.regions
            if r.kind == RegionKind.MEMORY_STACK
        }
        hubs = [w.switch_id for w in wis if w.region_id in memory_regions]
        others = [w.switch_id for w in wis if w.region_id not in memory_regions]
        rng.shuffle(hubs)
        rng.shuffle(others)
        budget = min(len(wis) - 1, math.ceil(fault_rate * len(wis)))
        at_cycle = max(1, cycles // 3)
        removed: Set[int] = set()
        for switch_id in hubs + others:
            if budget == 0:
                break
            incident = {link.link_id for link in _wireless_links_at(topology, switch_id)}
            if not _connected_without(topology, removed | incident):
                continue
            removed |= incident
            events.append(
                FaultEvent(
                    kind=FaultKind.TRANSCEIVER_DOWN,
                    at_cycle=at_cycle,
                    switch_id=switch_id,
                )
            )
            budget -= 1
    return FaultPlan(
        scenario="hub-transceiver-loss",
        fault_rate=fault_rate,
        seed=seed,
        events=tuple(events),
    )


def _make_degraded_channel(
    topology: TopologyGraph, *, fault_rate: float, seed: int, cycles: int
) -> FaultPlan:
    """SNR loss on the shared wireless channel.

    Every wireless hop serialises more slowly and routing biases away from
    it; wired architectures degrade their inter-die links instead.
    """
    events: List[FaultEvent] = []
    if fault_rate > 0.0:
        at_cycle = max(1, cycles // 4)
        factor = _degrade_factor(fault_rate)
        penalty = 1.0 + 2.0 * fault_rate
        if topology.wireless_switches:
            events.append(
                FaultEvent(
                    kind=FaultKind.CHANNEL_DEGRADE,
                    at_cycle=at_cycle,
                    bandwidth_factor=factor,
                    extra_latency_cycles=max(1, round(2 * fault_rate)),
                    routing_penalty=penalty,
                )
            )
        else:
            for link in topology.inter_region_links():
                if not topology.link_enabled(link.link_id):
                    continue
                events.append(
                    FaultEvent(
                        kind=FaultKind.LINK_DEGRADE,
                        at_cycle=at_cycle,
                        link_id=link.link_id,
                        bandwidth_factor=factor,
                        extra_latency_cycles=max(1, round(2 * fault_rate)),
                        routing_penalty=penalty,
                    )
                )
    return FaultPlan(
        scenario="degraded-channel",
        fault_rate=fault_rate,
        seed=seed,
        events=tuple(events),
    )


def _make_cascading(
    topology: TopologyGraph, *, fault_rate: float, seed: int, cycles: int
) -> FaultPlan:
    """A failure front: a random wired link dies, then its neighbours.

    Links next to the failed region keep dying at fixed intervals.  The
    front MAY partition the topology; the injector then reports it and
    accounts every stranded packet.
    """
    wired = _wired_links(topology)
    events: List[FaultEvent] = []
    if wired and fault_rate > 0.0:
        rng = make_rng(seed)
        budget = max(1, round(fault_rate * len(wired) / 2))
        interval = max(20, cycles // 12)
        at_cycle = max(1, cycles // 6)
        first = wired[rng.randrange(len(wired))]
        failed: List[LinkSpec] = [first]
        failed_ids: Set[int] = {first.link_id}
        events.append(
            FaultEvent(kind=FaultKind.LINK_DOWN, at_cycle=at_cycle, link_id=first.link_id)
        )
        frontier_switches: Set[int] = set(first.endpoints())
        while len(events) < budget:
            at_cycle += interval
            if at_cycle >= cycles:
                break
            candidates = sorted(
                {
                    link.link_id
                    for switch_id in frontier_switches
                    for _, link in topology.neighbors(switch_id)
                    if link.kind != LinkKind.WIRELESS
                    and link.link_id not in failed_ids
                }
            )
            if not candidates:
                break
            chosen_id = candidates[rng.randrange(len(candidates))]
            chosen = topology.link(chosen_id)
            failed.append(chosen)
            failed_ids.add(chosen_id)
            frontier_switches |= set(chosen.endpoints())
            events.append(
                FaultEvent(kind=FaultKind.LINK_DOWN, at_cycle=at_cycle, link_id=chosen_id)
            )
    return FaultPlan(
        scenario="cascading", fault_rate=fault_rate, seed=seed, events=tuple(events)
    )


#: Scenario name -> plan factory.
FAULT_SCENARIOS: Dict[str, ScenarioFactory] = {
    "none": _make_none,
    "random-links": _make_random_links,
    "hub-transceiver-loss": _make_hub_transceiver_loss,
    "degraded-channel": _make_degraded_channel,
    "cascading": _make_cascading,
}


def available_fault_scenarios() -> List[str]:
    """All scenario names, sorted."""
    return sorted(FAULT_SCENARIOS)


def create_fault_plan(
    name: str,
    topology: TopologyGraph,
    fault_rate: float,
    seed: int,
    cycles: int,
) -> FaultPlan:
    """Build the named scenario's fault plan for one topology and run."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
    try:
        factory = FAULT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(available_fault_scenarios())
        raise UnknownScenarioError(
            f"unknown fault scenario {name!r}; known scenarios: {known}"
        ) from None
    return factory(topology, fault_rate=fault_rate, seed=seed, cycles=cycles)
