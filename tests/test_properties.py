"""Property-based tests (hypothesis) on routing, topology and flow-control invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_system
from repro.core.config import Architecture, SystemConfig
from repro.noc.config import NetworkConfig, WirelessConfig
from repro.noc.engine import SimulationConfig, Simulator
from repro.routing import ShortestPathRouter, validate_route
from repro.routing.xy import manhattan_distance
from repro.topology import build_multichip_base, apply_wireless_overlay
from repro.topology.geometry import mesh_shape_for_cores
from repro.traffic.uniform import UniformRandomTraffic


@given(num_cores=st.integers(min_value=1, max_value=128))
def test_mesh_shape_factorisation(num_cores):
    cols, rows = mesh_shape_for_cores(num_cores)
    assert cols * rows == num_cores
    assert rows >= 1 and cols >= 1


@given(
    num_chips=st.integers(min_value=1, max_value=3),
    cores_per_chip=st.sampled_from([2, 4, 6, 8]),
    stacks=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_multichip_base_structure(num_chips, cores_per_chip, stacks):
    system = build_multichip_base(num_chips, cores_per_chip, stacks, vaults_per_stack=2)
    graph = system.graph
    assert len(graph.cores) == num_chips * cores_per_chip
    assert len(graph.memory_vaults) == stacks * 2
    assert graph.num_switches == num_chips * cores_per_chip + stacks
    # Grid coordinates must be unique (needed by XY routing).
    graph.grid_index()


@given(
    num_chips=st.integers(min_value=1, max_value=3),
    cores_per_chip=st.sampled_from([4, 8]),
    stacks=st.integers(min_value=1, max_value=3),
    cores_per_wi=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=15, deadline=None)
def test_wireless_routes_always_valid(num_chips, cores_per_chip, stacks, cores_per_wi):
    system = build_multichip_base(num_chips, cores_per_chip, stacks, vaults_per_stack=2)
    apply_wireless_overlay(system, SystemConfig(cores_per_wi=cores_per_wi))
    graph = system.graph
    graph.validate()
    router = ShortestPathRouter(graph)
    switches = [s.switch_id for s in graph.switches]
    for src in switches[:: max(1, len(switches) // 5)]:
        for dst in switches[:: max(1, len(switches) // 5)]:
            route = router.route(src, dst)
            validate_route(graph, route)
            assert route[0] == src and route[-1] == dst


@given(
    cores=st.sampled_from([4, 9, 16]),
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=25, deadline=None)
def test_single_chip_routes_are_minimal(cores, pairs):
    system = build_multichip_base(1, cores, 0)
    graph = system.graph
    router = ShortestPathRouter(graph)
    n = graph.num_switches
    for a, b in pairs:
        src, dst = a % n, b % n
        route = router.route(src, dst)
        assert len(route) - 1 == manhattan_distance(graph, src, dst)


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    injection=st.floats(min_value=0.0, max_value=0.2),
    mac=st.sampled_from(["control_packet", "token"]),
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulation_invariants_hold_for_random_loads(seed, injection, mac):
    """Flit conservation, non-negative energy and no stalls for random workloads."""
    config = SystemConfig(
        architecture=Architecture.WIRELESS,
        num_chips=2,
        cores_per_chip=4,
        num_memory_stacks=1,
        vaults_per_stack=2,
        cores_per_wi=4,
        total_processing_area_mm2=50.0,
        network=NetworkConfig(
            virtual_channels=2,
            buffer_depth_flits=4,
            packet_length_flits=4,
            wireless=WirelessConfig(mac=mac, num_channels=1),
        ),
    )
    system = build_system(config)
    traffic = UniformRandomTraffic(
        system.topology,
        injection_rate=injection,
        memory_access_fraction=0.25,
        seed=seed,
    )
    simulator = Simulator(
        topology=system.topology,
        router=system.router,
        traffic=traffic,
        network_config=config.network,
        simulation_config=SimulationConfig(cycles=250, warmup_cycles=50),
    )
    result = simulator.run()
    assert result.flits_ejected_measured <= result.flits_injected
    assert result.packets_delivered <= result.packets_generated <= result.packets_offered
    assert result.energy.total_pj >= 0
    for latency in result.latencies_cycles:
        assert latency >= config.network.packet_length_flits - 1
