"""Fault injection, routing recovery, and resilience accounting.

Covers the contracts the fault subsystem promises:

* deterministic, connectivity-aware fault plans from the scenario registry;
* single-link failures provably reroute, with delivered-flit conservation
  (``flits_injected == flits_ejected_total + flits_residual_end +
  flits_dropped_unroutable``) on every run;
* transceiver death falls back to the remaining fabric;
* partitions are reported and every stranded packet is accounted — never a
  silent drop;
* recovery either verifies a deadlock-free forwarding state or reports the
  partition / dependency cycle (property-tested over single-link failures
  on meshes); the online channel-dependency check agrees with Kahn's
  algorithm and stops at the shortest cyclic prefix; the audit stops at
  its first cycle with the full route set's verdict, re-tests the last
  cycle's witness first within a run (never across runs), and a partition
  skips it; every built-in figure system's pristine audit verdict is
  pinned;
* faulted runs leave no trace on the shared topology/router (restore);
* the task schema (v3) carries faults through cache keys and the runner.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.core.framework import MultichipSimulation
from repro.parallel import runner as runner_module
from repro.parallel.runner import (
    TASK_SCHEMA_VERSION,
    ExperimentRunner,
    SimulationTask,
    execute_task,
    uniform_task,
)
from repro.scenario import (
    builtin_scenario,
    builtin_scenario_names,
    compile_scenario,
    system_config,
)
from repro.scenario.fidelity import Fidelity
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    available_fault_scenarios,
    connected_components,
    create_fault_plan,
    rebuild_routes,
)
from repro.faults.recovery import recover_routing
from repro.faults.plan import FaultPlanError
from repro.noc.config import NetworkConfig
from repro.noc.engine import SimulationConfig, Simulator
from repro.noc.fabric import WiredFabric
from repro.routing import RoutingError, ShortestPathRouter
from repro.routing.validation import find_channel_dependency_cycle
from repro.testing import small_system_config
from repro.topology.graph import (
    EndpointKind,
    LinkKind,
    RegionKind,
    SwitchKind,
    TopologyGraph,
)
from repro.traffic.uniform import UniformRandomTraffic


def assert_flit_conservation(result) -> None:
    """Every injected flit is ejected, still in flight, or counted dropped."""
    assert result.flits_injected == (
        result.flits_ejected_total
        + result.flits_residual_end
        + result.flits_dropped_unroutable
    )


def mesh_graph(cols: int, rows: int, cores: bool = True) -> TopologyGraph:
    """A single-region cols x rows mesh with one core endpoint per switch."""
    graph = TopologyGraph()
    region = graph.add_region(
        kind=RegionKind.PROCESSOR_CHIP,
        name="chip0",
        mesh_cols=cols,
        mesh_rows=rows,
        origin_mm=(0.0, 0.0),
        edge_mm=10.0,
    )
    ids = {}
    for y in range(rows):
        for x in range(cols):
            switch = graph.add_switch(
                kind=SwitchKind.CORE,
                region_id=region.region_id,
                grid_x=x,
                grid_y=y,
                position_mm=(float(x), float(y)),
            )
            ids[(x, y)] = switch.switch_id
            if cores:
                graph.add_endpoint(EndpointKind.CORE, switch.switch_id)
    for y in range(rows):
        for x in range(cols):
            if x + 1 < cols:
                graph.add_link(ids[(x, y)], ids[(x + 1, y)], LinkKind.MESH, 1.0)
            if y + 1 < rows:
                graph.add_link(ids[(x, y)], ids[(x, y + 1)], LinkKind.MESH, 1.0)
    return graph


# ----------------------------------------------------------------------
# Scenario registry and plans.
# ----------------------------------------------------------------------


def test_scenario_registry_lists_builtins():
    names = available_fault_scenarios()
    for expected in (
        "none",
        "random-links",
        "hub-transceiver-loss",
        "degraded-channel",
        "cascading",
    ):
        assert expected in names


@pytest.mark.parametrize("scenario", ["none", "random-links", "cascading"])
def test_plans_are_deterministic(small_substrate_system, scenario):
    topology = small_substrate_system.topology
    one = create_fault_plan(scenario, topology, fault_rate=0.4, seed=11, cycles=1000)
    two = create_fault_plan(scenario, topology, fault_rate=0.4, seed=11, cycles=1000)
    assert one == two
    if scenario != "none":
        other_seed = create_fault_plan(
            scenario, topology, fault_rate=0.4, seed=12, cycles=1000
        )
        assert one != other_seed


def test_zero_rate_plans_are_empty(small_wireless_system):
    topology = small_wireless_system.topology
    for scenario in available_fault_scenarios():
        plan = create_fault_plan(scenario, topology, fault_rate=0.0, seed=3, cycles=500)
        assert plan.is_empty, scenario


def test_random_links_preserves_connectivity(small_interposer_system):
    topology = small_interposer_system.topology
    plan = create_fault_plan(
        "random-links", topology, fault_rate=0.9, seed=21, cycles=2000
    )
    assert not plan.is_empty
    try:
        for event in plan.events:
            assert event.kind is FaultKind.LINK_DOWN
            topology.disable_link(event.link_id)
        assert len(connected_components(topology)) == 1
    finally:
        topology.enable_all_links()


def test_event_validation():
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=FaultKind.LINK_DOWN)  # missing link_id
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=FaultKind.TRANSCEIVER_DOWN)  # missing switch_id
    with pytest.raises(FaultPlanError):
        FaultEvent(kind=FaultKind.LINK_DEGRADE, link_id=0)  # degrades nothing
    with pytest.raises(FaultPlanError):
        FaultPlan(scenario="x", fault_rate=1.5, seed=0)


# ----------------------------------------------------------------------
# Fabric gates.
# ----------------------------------------------------------------------


def test_wired_fabric_gate_blocks_heads_only():
    fabric = WiredFabric()
    packet_id = 0
    head, body = True, False
    assert fabric.grants(0, packet_id, 1, head)
    fabric.fail_link(0, 1)
    assert not fabric.grants(0, packet_id, 1, head)
    assert not fabric.grants(1, packet_id, 0, head)
    # Committed packets drain: body flits still cross the failed link.
    assert fabric.grants(0, packet_id, 1, body)
    # Other hops are unaffected.
    assert fabric.grants(0, packet_id, 2, head)


# ----------------------------------------------------------------------
# Single-link failure: rerouting and conservation.
# ----------------------------------------------------------------------


def busiest_mesh_link(system):
    """The in-service mesh link crossed by the most switch-pair routes."""
    topology = system.topology
    counts = {}
    switch_ids = [s.switch_id for s in topology.switches]
    for src in switch_ids:
        for dst in switch_ids:
            if src == dst:
                continue
            route = system.router.route(src, dst)
            for a, b in zip(route, route[1:]):
                link = topology.find_link(a, b)
                if link is not None and link.kind == LinkKind.MESH:
                    counts[link.link_id] = counts.get(link.link_id, 0) + 1
    system.router.clear_cache()
    return max(counts, key=counts.get)


@pytest.mark.parametrize("architecture", [Architecture.SUBSTRATE, Architecture.WIRELESS])
def test_single_link_failure_reroutes_with_conservation(architecture):
    config = small_system_config(architecture)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=900, warmup_cycles=0)
    )
    link_id = busiest_mesh_link(simulation.system)
    plan = FaultPlan(
        scenario="custom",
        fault_rate=0.1,
        seed=0,
        events=(FaultEvent(kind=FaultKind.LINK_DOWN, at_cycle=150, link_id=link_id),),
    )
    result = simulation.run_pattern(
        "uniform", injection_rate=0.03, seed=9, fault_plan=plan
    )
    baseline = simulation.run_pattern("uniform", injection_rate=0.03, seed=9)

    assert result.links_failed == 1
    assert result.fault_events_applied == 1
    assert result.partitions_reported == 0
    assert result.packets_dropped_unroutable == 0
    # The failure provably reroutes: traffic keeps flowing and every
    # injected flit is still accounted for.
    assert result.packets_delivered > 0.8 * baseline.packets_delivered
    assert_flit_conservation(result)
    assert_flit_conservation(baseline)


def test_static_link_failure_applies_at_cycle_zero(small_substrate_system):
    config = small_system_config(Architecture.SUBSTRATE)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=600, warmup_cycles=0)
    )
    link_id = busiest_mesh_link(simulation.system)
    plan = FaultPlan(
        scenario="custom",
        fault_rate=0.1,
        seed=0,
        events=(FaultEvent(kind=FaultKind.LINK_DOWN, at_cycle=0, link_id=link_id),),
    )
    result = simulation.run_pattern(
        "uniform", injection_rate=0.02, seed=4, fault_plan=plan
    )
    assert result.links_failed == 1
    assert result.packets_delivered > 0
    assert_flit_conservation(result)


def test_degraded_port_slows_but_conserves():
    config = small_system_config(Architecture.INTERPOSER)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=900, warmup_cycles=0)
    )
    inter = [
        link
        for link in simulation.system.topology.inter_region_links()
        if link.kind == LinkKind.INTERPOSER
    ]
    events = tuple(
        FaultEvent(
            kind=FaultKind.LINK_DEGRADE,
            at_cycle=100,
            link_id=link.link_id,
            bandwidth_factor=4,
            extra_latency_cycles=6,
            routing_penalty=2.0,
        )
        for link in inter
    )
    plan = FaultPlan(scenario="custom", fault_rate=0.5, seed=0, events=events)
    degraded = simulation.run_pattern(
        "uniform", injection_rate=0.03, seed=9, fault_plan=plan
    )
    baseline = simulation.run_pattern("uniform", injection_rate=0.03, seed=9)
    assert degraded.links_degraded == len(inter)
    assert (
        degraded.average_packet_latency_cycles()
        > baseline.average_packet_latency_cycles()
    )
    assert_flit_conservation(degraded)


# ----------------------------------------------------------------------
# Transceiver failure: wireless -> remaining-fabric fallback.
# ----------------------------------------------------------------------


def test_transceiver_death_falls_back_and_conserves():
    # 2 WIs per chip, so a dead chip transceiver has an in-chip fallback.
    config = replace(small_system_config(Architecture.WIRELESS), cores_per_wi=2)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=900, warmup_cycles=0)
    )
    topology = simulation.system.topology
    plan = create_fault_plan(
        "hub-transceiver-loss", topology, fault_rate=0.4, seed=99, cycles=900
    )
    assert not plan.is_empty
    result = simulation.run_pattern(
        "uniform", injection_rate=0.03, seed=5, fault_plan=plan
    )
    baseline = simulation.run_pattern("uniform", injection_rate=0.03, seed=5)
    assert result.transceivers_failed == len(plan.events)
    assert result.partitions_reported == 0
    assert result.packets_delivered > 0.7 * baseline.packets_delivered
    assert_flit_conservation(result)


def test_hub_loss_skips_articulation_wis(small_wireless_system):
    # At 1 WI per chip every WI is an articulation point: killing any one
    # would disconnect its die, so the scenario must have nothing to kill.
    plan = create_fault_plan(
        "hub-transceiver-loss",
        small_wireless_system.topology,
        fault_rate=1.0,
        seed=1,
        cycles=1000,
    )
    assert plan.is_empty


# ----------------------------------------------------------------------
# Partitions: reported, never silent.
# ----------------------------------------------------------------------


def test_partition_is_reported_and_accounted():
    graph = mesh_graph(2, 1)  # two switches, one link: any failure partitions
    router = ShortestPathRouter(graph)
    traffic = UniformRandomTraffic(
        graph, injection_rate=0.05, memory_access_fraction=0.0, seed=3
    )
    plan = FaultPlan(
        scenario="custom",
        fault_rate=1.0,
        seed=0,
        events=(
            FaultEvent(
                kind=FaultKind.LINK_DOWN,
                at_cycle=200,
                link_id=graph.links[0].link_id,
            ),
        ),
    )
    simulator = Simulator(
        topology=graph,
        router=router,
        traffic=traffic,
        simulation_config=SimulationConfig(cycles=800, warmup_cycles=0),
        fault_plan=plan,
    )
    result = simulator.run()
    assert result.partitions_reported == 1
    # Cross-island traffic keeps being requested after the cut, so drops
    # must be visible in the explicit counter.
    assert result.packets_dropped_unroutable > 0
    assert_flit_conservation(result)
    # The topology is restored for the next run.
    assert graph.disabled_links == []


def test_cascading_partition_conserves(small_substrate_system):
    config = small_system_config(Architecture.SUBSTRATE)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=900, warmup_cycles=0)
    )
    plan = create_fault_plan(
        "cascading",
        simulation.system.topology,
        fault_rate=0.6,
        seed=77,
        cycles=900,
    )
    assert not plan.is_empty
    result = simulation.run_pattern(
        "uniform", injection_rate=0.03, seed=6, fault_plan=plan
    )
    assert result.links_failed == len(plan.events)
    assert_flit_conservation(result)


# ----------------------------------------------------------------------
# Recovery: deadlock-free forwarding or a reported partition.
# ----------------------------------------------------------------------


def test_cdg_detects_a_ring_cycle():
    ring = [[0, 1, 2], [1, 2, 3], [2, 3, 0], [3, 0, 1]]
    cycle = find_channel_dependency_cycle(ring)
    assert cycle is not None
    assert cycle[0] == cycle[-1]
    assert find_channel_dependency_cycle([[0, 1, 2], [1, 2, 3]]) is None


def _kahn_is_cyclic(routes) -> bool:
    """Reference verdict: whether Kahn's topological sort of the channel
    dependencies of ``routes`` leaves channels it cannot order."""
    dependencies = {
        ((a, b), (b, c)) for route in routes for a, b, c in zip(route, route[1:], route[2:])
    }
    channels = {channel for dependency in dependencies for channel in dependency}
    indegree = {channel: 0 for channel in channels}
    successors = {channel: [] for channel in channels}
    for tail, head in dependencies:
        indegree[head] += 1
        successors[tail].append(head)
    ready = [channel for channel in channels if indegree[channel] == 0]
    ordered = 0
    while ready:
        channel = ready.pop()
        ordered += 1
        for head in successors[channel]:
            indegree[head] -= 1
            if indegree[head] == 0:
                ready.append(head)
    return ordered < len(channels)


def _grid_walk(start, moves, side=3):
    """A self-avoiding walk over a side x side grid of switch ids."""
    route = [start]
    for move in moves:
        x, y = route[-1] % side, route[-1] // side
        dx, dy = ((1, 0), (-1, 0), (0, 1), (0, -1))[move]
        if 0 <= x + dx < side and 0 <= y + dy < side:
            step = x + dx + side * (y + dy)
            if step not in route:
                route.append(step)
    return route


@settings(max_examples=300, deadline=None)
@given(
    walks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=12),
        ),
        min_size=4,
        max_size=20,
    )
)
def test_online_cdg_check_stops_at_the_shortest_cyclic_prefix(walks):
    """Property: the online check agrees with Kahn's algorithm, draws no
    route past the shortest cyclic prefix, and reports a real closed cycle
    of the routes it drew."""
    routes = [_grid_walk(start, moves) for start, moves in walks]
    drawn = []

    def feed():
        for route in routes:
            drawn.append(route)
            yield route

    cycle = find_channel_dependency_cycle(feed())
    assert (cycle is not None) == _kahn_is_cyclic(routes)
    if cycle is None:
        assert drawn == routes
        return
    shortest = next(k for k in range(1, len(routes) + 1) if _kahn_is_cyclic(routes[:k]))
    assert len(drawn) == shortest
    assert cycle[0] == cycle[-1] and len(cycle) >= 2
    triples = {t for route in drawn for t in zip(route, route[1:], route[2:])}
    for (a, b), (b2, c) in zip(cycle, cycle[1:]):
        assert b == b2 and (a, b, c) in triples


def test_recovery_on_mesh_link_failure_is_deadlock_free():
    graph = mesh_graph(3, 3)
    router = ShortestPathRouter(graph)
    # Fail the centre horizontal link (on many XY paths).  Shortest-path
    # recovery around the hole has a channel-dependency cycle (the XY
    # deadlock argument no longer applies), so the recovery contract must
    # install the spanning-tree fallback and come back verified.
    centre = graph.grid_index()[(1, 1)]
    right = graph.grid_index()[(2, 1)]
    link = graph.find_link(centre, right)
    try:
        graph.disable_link(link.link_id)
        provider, report = recover_routing(graph, router)
        assert not report.partitioned
        assert report.used_tree_fallback
        assert report.deadlock_free is True
        assert report.invalid_routes == []
        # The recovered routes avoid the failed link by construction.
        for src in range(graph.num_switches):
            for dst in range(graph.num_switches):
                if src == dst:
                    continue
                route = provider.route(src, dst)
                assert (centre, right) not in zip(route, route[1:])
                assert (right, centre) not in zip(route, route[1:])
    finally:
        graph.enable_all_links()


@settings(max_examples=60, deadline=None)
@given(
    cols=st.integers(min_value=2, max_value=4),
    rows=st.integers(min_value=1, max_value=4),
    link_choice=st.integers(min_value=0, max_value=10_000),
)
def test_any_single_link_failure_recovers_or_reports(cols, rows, link_choice):
    """Property: a single-link failure on a connected mesh either yields a
    verified deadlock-free forwarding state or a reported partition —
    never a silent drop of reachability."""
    graph = mesh_graph(cols, rows, cores=False)
    links = graph.links
    link = links[link_choice % len(links)]
    router = ShortestPathRouter(graph)
    graph.disable_link(link.link_id)
    provider, report = recover_routing(graph, router)
    if report.partitioned:
        # Partition must be real: the two endpoints of the failed link are
        # separated, and it is reported via the component list.
        assert not report.same_component(link.src, link.dst)
        assert sum(len(c) for c in report.components) == graph.num_switches
    else:
        assert report.deadlock_free is True, report.dependency_cycle
        assert report.invalid_routes == []
        # Reachability survives: every pair still gets a valid route from
        # the recovered provider.
        for src in (link.src, link.dst):
            for dst in (s.switch_id for s in graph.switches):
                if src != dst:
                    assert provider.route(src, dst)


def _all_routes(router, switches):
    """Every ordered pair's route, ``None`` where the pair is cut off."""
    routes = {}
    for src in switches:
        for dst in switches:
            if src == dst:
                continue
            try:
                routes[(src, dst)] = router.route(src, dst)
            except RoutingError:
                routes[(src, dst)] = None
    return routes


#: The resilience figure's systems, read from its built-in scenario document.
FIG7_SYSTEMS = {
    system.label: system_config(system, index)
    for index, system in enumerate(builtin_scenario("fig7").systems)
}


@pytest.mark.parametrize("label", sorted(FIG7_SYSTEMS))
def test_recovered_router_matches_a_fresh_one(label):
    """No router memo (routes, forests, XY runs) outlives a topology change.

    A router that has already routed every pair goes through link failures,
    recovery passes and a penalty.  It must then route exactly like a router
    built fresh on the degraded graph, and after the restore exactly like
    it did on the pristine one.  The same holds for the router the runner's
    memo shares across tasks, once a faulted task's ``restore()`` has run.
    """
    config = FIG7_SYSTEMS[label]
    system = build_system(config)
    graph, router = system.topology, system.router
    switches = [s.switch_id for s in graph.switches]
    pristine = _all_routes(router, switches)
    mesh = graph.links_of_kind(LinkKind.MESH)
    failed = [mesh[len(mesh) // 2], mesh[len(mesh) // 3], graph.inter_region_links()[0]]
    penalised = mesh[len(mesh) // 4]
    try:
        for link in failed:
            graph.disable_link(link.link_id)
            recover_routing(graph, router)
        router.set_link_penalty(penalised.link_id, 3.0)
        fresh = ShortestPathRouter(graph)
        fresh.set_link_penalty(penalised.link_id, 3.0)
        degraded = _all_routes(router, switches)
        assert degraded == _all_routes(fresh, switches)
        assert degraded != pristine
    finally:
        graph.enable_all_links()
        router.clear_link_penalties()
    router.clear_cache()
    assert _all_routes(router, switches) == pristine

    runner_module._BUILD_MEMO.clear()
    fidelity = Fidelity("tiny", cycles=40, warmup_cycles=10, load_points=(), applications=())
    execute_task(uniform_task(config, fidelity, load=0.05))
    faulted = uniform_task(config, fidelity, load=0.05, faults="random-links", fault_rate=0.05)
    assert execute_task(faulted)["links_failed"] > 0
    memo_system = runner_module._BUILD_MEMO.system(config)
    assert memo_system.topology.disabled_links == []
    assert _all_routes(memo_system.router, switches) == pristine


def _count_route_calls(monkeypatch, router):
    """Count the router's ``route`` calls from here on; returns the counter."""
    calls = [0]
    route = router.route

    def counting(src, dst):
        calls[0] += 1
        return route(src, dst)

    monkeypatch.setattr(router, "route", counting)
    return calls


def test_partition_skips_the_deadlock_audit(monkeypatch):
    """A partition is the recovery outcome, so no route is enumerated for an
    audit whose verdict could not change the provider."""
    graph = mesh_graph(3, 2)
    router = ShortestPathRouter(graph)
    ids = graph.grid_index()
    calls = _count_route_calls(monkeypatch, router)
    try:
        # Cutting both links into the right-hand column isolates it.
        for y in range(2):
            graph.disable_link(graph.find_link(ids[(1, y)], ids[(2, y)]).link_id)
        provider, report = recover_routing(graph, router)
    finally:
        graph.enable_all_links()
    assert calls[0] == 0
    assert report.components == [
        sorted(ids[(x, y)] for x in range(2) for y in range(2)),
        sorted(ids[(2, y)] for y in range(2)),
    ]
    assert provider is router
    assert report.verified is False
    assert report.deadlock_free is None
    assert not report.used_tree_fallback


@pytest.mark.parametrize("label", sorted(FIG7_SYSTEMS))
def test_early_audit_exit_matches_the_full_route_set(label, monkeypatch):
    """The audit stops at the first dependency cycle with the verdict the full
    route set gives, reports a real cycle of that set, and routes fewer pairs
    than the full enumeration whenever it finds one."""
    system = build_system(FIG7_SYSTEMS[label])
    graph, router = system.topology, system.router
    mesh = graph.links_of_kind(LinkKind.MESH)
    inter = graph.inter_region_links()
    # Single and double link failures; on the wired systems some partition it.
    failure_sets = (
        [mesh[0]],
        [mesh[len(mesh) // 2]],
        [inter[-1]],
        [mesh[1], mesh[len(mesh) // 3]],
        [inter[0], inter[1]],
    )
    calls = _count_route_calls(monkeypatch, router)
    verdicts = set()
    for failed in failure_sets:
        try:
            for link in failed:
                graph.disable_link(link.link_id)
            calls[0] = 0
            report = rebuild_routes(graph, router, verify_deadlock_freedom=True)
            audited = calls[0]
            full = [
                router.route(src, dst)
                for component in report.components
                for src in component
                for dst in component
                if src != dst
            ]
        finally:
            graph.enable_all_links()
            router.clear_cache()
        assert report.verified and report.invalid_routes == []
        assert report.deadlock_free == (find_channel_dependency_cycle(full) is None)
        verdicts.add(report.deadlock_free)
        if report.deadlock_free:
            assert report.dependency_cycle is None
            assert audited == len(full)
            continue
        cycle = report.dependency_cycle
        assert cycle[0] == cycle[-1]
        triples = {t for route in full for t in zip(route, route[1:], route[2:])}
        for (a, b), (b2, c) in zip(cycle, cycle[1:]):
            assert b == b2 and (a, b, c) in triples
        assert audited < len(full)
    # Each system exercises an early exit; the wired ones also a full pass
    # (every wireless set has a cycle, even among its pristine routes).
    assert False in verdicts
    if label != "wireless":
        assert True in verdicts


def _count_pair_routes(monkeypatch, router):
    """Count the router's ``route`` calls per (src, dst) pair from here on."""
    calls = Counter()
    route = router.route

    def counting(src, dst):
        calls[(src, dst)] += 1
        return route(src, dst)

    monkeypatch.setattr(router, "route", counting)
    return calls


def _connected_mesh_failures(graph, after):
    """Mesh links after ``after`` whose loss keeps the graph connected."""
    mesh = graph.links_of_kind(LinkKind.MESH)
    for link in mesh[mesh.index(after) + 1 :]:
        graph.disable_link(link.link_id)
        connected = len(connected_components(graph)) == 1
        graph.enable_link(link.link_id)
        if connected:
            yield link


def test_recovery_audits_the_last_cycle_witness_first(monkeypatch):
    """A recovery re-tests the pairs whose routes closed the previous cycle
    before any other pair.  When that cycle survives the next fault, the
    audit routes those pairs alone; when it does not, the audit goes on to
    the full set's verdict, routing no pair twice."""
    system = build_system(FIG7_SYSTEMS["mesh"])
    graph, router = system.topology, system.router
    first = graph.links_of_kind(LinkKind.MESH)[0]
    calls = _count_pair_routes(monkeypatch, router)
    try:
        graph.disable_link(first.link_id)
        _, report = recover_routing(graph, router)
        assert report.used_tree_fallback
        witness = report.witness
        assert witness
        on_witness = {switch for pair in witness for switch in router.route(*pair)}
        far = far_verdict = broken = None
        for second in _connected_mesh_failures(graph, first):
            graph.disable_link(second.link_id)
            calls.clear()
            _, report = recover_routing(graph, router, witness)
            audited = dict(calls)
            full = [
                router.route(src, dst)
                for src in range(graph.num_switches)
                for dst in range(graph.num_switches)
                if src != dst
            ]
            graph.enable_link(second.link_id)
            assert max(audited.values()) == 1
            assert report.used_tree_fallback == (find_channel_dependency_cycle(full) is not None)
            if far is None and not {second.src, second.dst} & on_witness:
                far, far_verdict = audited, report.used_tree_fallback
            if broken is None and len(audited) > len(witness):
                broken = audited
            if far is not None and broken is not None:
                break
    finally:
        graph.enable_all_links()
        router.clear_cache()
    # A fault away from the witness's routes leaves its cycle intact.
    assert far_verdict is True
    assert set(far) <= set(witness)
    # Some fault breaks the witness; the audit then enumerated further.
    assert broken is not None and set(witness) <= set(broken)


def test_each_run_starts_its_recoveries_without_a_witness(monkeypatch):
    """The injector hands each recovery the previous one's witness, but a
    run never inherits one: its first recovery audits from scratch."""
    from repro.faults import injector as injector_module

    config = FIG7_SYSTEMS["mesh"]
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=60, warmup_cycles=0)
    )
    mesh = simulation.system.topology.links_of_kind(LinkKind.MESH)
    plan = FaultPlan(
        scenario="custom",
        fault_rate=0.1,
        seed=0,
        events=tuple(
            FaultEvent(kind=FaultKind.LINK_DOWN, at_cycle=cycle, link_id=mesh[index].link_id)
            for cycle, index in ((10, 0), (20, 10), (30, 40))
        ),
    )
    passes = []
    recover = injector_module.recover_routing

    def recording(topology, router, witness=()):
        provider, report = recover(topology, router, witness)
        passes.append((witness, report.witness))
        return provider, report

    monkeypatch.setattr(injector_module, "recover_routing", recording)
    for _ in range(2):
        passes.clear()
        simulation.run_pattern("uniform", injection_rate=0.02, seed=3, fault_plan=plan)
        assert len(passes) == 3
        assert passes[0][0] == ()
        for (_, found), (given, _) in zip(passes, passes[1:]):
            assert given == found
        assert passes[0][1] != ()


#: The pristine deadlock-audit verdict of every distinct system the built-in
#: figures build, keyed by the first figure that builds it.  Two wireless
#: route sets have a channel-dependency cycle today; ROADMAP item 3 step 2
#: changes their routing and flips both to ``True``.
BUILTIN_SYSTEM_AUDITS = {
    ("fig2", "4C4M (Substrate)"): True,
    ("fig2", "4C4M (Interposer)"): True,
    ("fig2", "4C4M (Wireless)"): True,
    ("fig4", "1C4M (Interposer)"): True,
    ("fig4", "1C4M (Wireless)"): False,
    ("fig4", "8C4M (Interposer)"): True,
    ("fig4", "8C4M (Wireless)"): True,
    ("fig7", "1C4M (Substrate)"): True,
    ("fig7", "4C4M (Wireless)"): False,
}


def test_builtin_figure_systems_pin_their_deadlock_audit():
    """Every built-in figure system is audited and its verdict is pinned."""
    systems = {}
    for name in builtin_scenario_names():
        for task in compile_scenario(builtin_scenario(name, "fast")):
            config = task.effective_config()
            # build_system never reads the network field (see BuildMemo).
            systems.setdefault(replace(config, network=NetworkConfig()), (name, config))
    verdicts = {}
    for name, config in systems.values():
        system = build_system(config)
        report = rebuild_routes(system.topology, system.router, verify_deadlock_freedom=True)
        assert report.verified and not report.partitioned and report.invalid_routes == []
        assert (report.dependency_cycle is None) == report.deadlock_free
        verdicts[(name, config.name)] = report.deadlock_free
    assert verdicts == BUILTIN_SYSTEM_AUDITS


# ----------------------------------------------------------------------
# Restore: faulted runs leave no trace.
# ----------------------------------------------------------------------


def test_faulted_run_leaves_no_trace():
    config = small_system_config(Architecture.WIRELESS)
    simulation = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=700, warmup_cycles=0)
    )
    plan = create_fault_plan(
        "random-links", simulation.system.topology, fault_rate=0.5, seed=13, cycles=700
    )
    assert not plan.is_empty
    simulation.run_pattern("uniform", injection_rate=0.02, seed=5, fault_plan=plan)
    assert simulation.system.topology.disabled_links == []
    after = simulation.run_pattern("uniform", injection_rate=0.02, seed=5)
    fresh = MultichipSimulation.from_config(
        config, SimulationConfig(cycles=700, warmup_cycles=0)
    ).run_pattern("uniform", injection_rate=0.02, seed=5)
    assert after.packets_delivered == fresh.packets_delivered
    assert after.latencies_cycles == fresh.latencies_cycles
    assert after.energy.total_pj == fresh.energy.total_pj


def test_empty_plan_is_bit_identical_to_no_plan():
    config = small_system_config(Architecture.SUBSTRATE)

    def run(fault_plan):
        return MultichipSimulation.from_config(
            config, SimulationConfig(cycles=500, warmup_cycles=100)
        ).run_pattern("uniform", injection_rate=0.02, seed=7, fault_plan=fault_plan)

    none_plan = run(None)
    empty = run(
        FaultPlan(scenario="none", fault_rate=0.0, seed=0, events=())
    )
    assert none_plan.packets_delivered == empty.packets_delivered
    assert none_plan.latencies_cycles == empty.latencies_cycles
    assert none_plan.flit_hops == empty.flit_hops
    assert none_plan.energy.total_pj == empty.energy.total_pj


# ----------------------------------------------------------------------
# Task schema v3: faults through the runner and the cache.
# ----------------------------------------------------------------------


def test_task_schema_and_cache_keys():
    # v5 introduced the declarative scenario layer, which compiles
    # documents into these same tasks and shares their cache entries; v6
    # entries stay valid now that one kernel is left.
    assert TASK_SCHEMA_VERSION == 6
    config = small_system_config(Architecture.SUBSTRATE)
    base = SimulationTask(
        kind="synthetic", config=config, cycles=400, warmup_cycles=100, seed=1, load=0.01
    )
    assert base.faults == "none" and base.fault_rate == 0.0
    faulted = replace(base, faults="random-links", fault_rate=0.2)
    assert base.cache_key() != faulted.cache_key()
    assert faulted.cache_key() != replace(faulted, fault_rate=0.3).cache_key()
    assert "faults=random-links@0.2" in faulted.label
    with pytest.raises(KeyError):
        SimulationTask(
            kind="synthetic",
            config=config,
            cycles=400,
            warmup_cycles=100,
            seed=1,
            load=0.01,
            faults="no-such-scenario",
        )
    with pytest.raises(ValueError):
        replace(base, fault_rate=1.5)


class _Fidelity:
    cycles = 500
    warmup_cycles = 100
    seed = 3


def test_runner_executes_and_caches_faulted_tasks(tmp_path):
    config = small_system_config(Architecture.SUBSTRATE)
    task = uniform_task(
        config, _Fidelity(), load=0.02, faults="random-links", fault_rate=0.3
    )
    cold = ExperimentRunner(cache_dir=str(tmp_path))
    first = cold.run([task])[task]
    assert cold.tasks_executed == 1
    warm = ExperimentRunner(cache_dir=str(tmp_path))
    second = warm.run([task])[task]
    assert warm.cache_hits == 1 and warm.tasks_executed == 0
    assert first == second
    assert first.fault_events_applied > 0
    # The pristine twin of the same task lives under a different key.
    pristine = uniform_task(config, _Fidelity(), load=0.02)
    third = ExperimentRunner(cache_dir=str(tmp_path))
    summary = third.run([pristine])[pristine]
    assert third.tasks_executed == 1
    assert summary.fault_events_applied == 0


def test_fig7_runs_at_fast_fidelity(tmp_path):
    from repro.experiments import fig7_resilience

    runner = ExperimentRunner(cache_dir=str(tmp_path))
    result = fig7_resilience.run("fast", runner=runner, fault_rate=0.3)
    assert result.scenario == "random-links"
    assert set(result.curves) == {"mesh", "interposer", "wireless"}
    for label in result.curves:
        rates = [rate for rate, _ in result.curves[label]]
        assert rates == [0.0, 0.3]
        assert all(point.packets_delivered > 0 for _, point in result.curves[label])
        assert 0.0 < result.throughput_retention(label) <= 1.0
    # Warm re-run is served entirely from the cache and is identical.
    warm_runner = ExperimentRunner(cache_dir=str(tmp_path))
    warm = fig7_resilience.run("fast", runner=warm_runner, fault_rate=0.3)
    assert warm_runner.tasks_executed == 0
    assert warm.rows() == result.rows()
