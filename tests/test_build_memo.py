"""Tests of build reuse: the runner's memo and the resettable network.

The runner keeps a small per-process memo of built systems (topology plus
router with its warm route caches) and of networks, and each task resets
its network instead of building a new one.  These tests pin that a served
object is indistinguishable from a fresh build: a reset network equals a
new one field by field, a router shared across tasks routes like a fresh
one, and a faulted task leaves nothing behind for the next one.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.faults import available_fault_scenarios
from repro.noc.engine import SimulationConfig, Simulator
from repro.noc.network import Network, NetworkBuildError
from repro.parallel import runner
from repro.parallel.runner import BuildMemo, execute_task, uniform_task
from repro.routing import RoutingError, ShortestPathRouter
from repro.testing import small_system_config
from repro.traffic.registry import create_pattern

SRC = Path(__file__).resolve().parents[1] / "src"

ALL_MACS = ("control_packet", "fdma", "tdma", "token")


@dataclass(frozen=True)
class _Fidelity:
    cycles: int = 400
    warmup_cycles: int = 100
    seed: int = 11


def _port_name(port):
    return None if port is None else (port.switch.switch_id, port.key)


def _network_state(network):
    """Every piece of per-run state of a network, comparable across builds."""
    switches = {}
    for switch_id, switch in sorted(network.switches.items()):
        vcs = [
            (
                vc.buffer,
                vc.front,
                vc.count,
                vc.in_flight,
                vc.allocated_packet_id,
                _port_name(vc.current_output),
                _port_name(vc.downstream_port),
                vc.downstream_switch,
                vc.send_target is None,
                vc.source_packet,
                vc.source_flits_emitted,
            )
            for vc in switch.vc_by_ordinal
        ]
        outputs = [
            (
                port.key,
                port.busy_until,
                port.rr_pointer,
                port.link,
                type(port.fabric).__name__,
                list(port.request_scratch),
            )
            for port in switch.output_ports.values()
        ]
        switches[switch_id] = (sorted(switch.occupied), vcs, outputs)
    wired = network.wired_fabric
    state = {
        "switches": switches,
        "wired": (sorted(wired.failed_pairs), wired.always_grants),
    }
    fabric = network.wireless_fabric
    if fabric is not None:
        for switch_id in fabric.wi_switch_ids:
            assert network.switches[switch_id].wireless_output.fabric is fabric
        state["wireless"] = (
            sorted(fabric.dead_wis),
            fabric.transceivers,
            [(type(mac).__name__, mac.channel_id, mac.wi_switch_ids) for mac in fabric.macs],
            [
                {
                    name: value.as_dict() if name == "stats" else value
                    for name, value in vars(mac).items()
                    if name != "plane"
                }
                for mac in fabric.macs
            ],
            fabric.mac_statistics(),
            fabric.channel_energy_breakdown(),
            fabric._flit_hops,
        )
    return state


def _saturated_network(architecture=Architecture.WIRELESS):
    """A network that ended a congested run with flits still in flight."""
    config = small_system_config(architecture)
    system = build_system(config)
    network = Network(system.topology, config.network)
    simulator = Simulator(
        topology=system.topology,
        router=system.router,
        traffic=create_pattern(
            "uniform",
            system.topology,
            injection_rate=0.5,
            memory_access_fraction=0.3,
            seed=5,
        ),
        network_config=config.network,
        simulation_config=SimulationConfig(cycles=400, warmup_cycles=50),
    )
    simulator.network = network
    result = simulator.run()
    assert result.flits_residual_end > 0
    assert any(
        port.busy_until
        for switch in network.switches.values()
        for port in switch.output_ports.values()
    )
    return system, config, network


class TestNetworkReset:
    @pytest.mark.parametrize("architecture", (Architecture.WIRELESS, Architecture.SUBSTRATE))
    def test_reset_network_equals_a_fresh_one(self, architecture):
        system, config, network = _saturated_network(architecture)
        fresh = Network(system.topology, config.network)
        assert _network_state(network) != _network_state(fresh)
        network.reset()
        assert _network_state(network) == _network_state(fresh)

    def test_reset_restores_degraded_links_failures_and_dead_wis(self):
        system, config, network = _saturated_network()
        fresh = Network(system.topology, config.network)
        fabric = network.wireless_fabric
        wi = fabric.wi_switch_ids[0]
        port = network.switches[wi].wireless_output
        port.link = replace(port.link, cycles_per_flit=4, latency_cycles=9)
        link = system.topology.links[0]
        network.wired_fabric.fail_link(link.src, link.dst)
        fabric.fail_transceiver(wi)
        network.reset()
        assert network.wireless_fabric is not fabric
        assert _network_state(network) == _network_state(fresh)

    @pytest.mark.parametrize("mac", ALL_MACS)
    def test_reset_to_another_variant_equals_a_fresh_build_of_it(self, mac):
        system, config, network = _saturated_network()
        variant = replace(
            config.network,
            wireless=replace(config.network.wireless, mac=mac, num_channels=1),
        )
        assert Network.build_key(variant) == Network.build_key(config.network)
        network.reset(variant)
        assert network.config is variant
        assert _network_state(network) == _network_state(
            Network(system.topology, variant)
        )

    def test_reset_refuses_a_config_with_other_build_fields(self):
        config = small_system_config(Architecture.WIRELESS)
        network = Network(build_system(config).topology, config.network)
        deeper = config.with_wireless(wi_buffer_depth_flits=16).network
        with pytest.raises(NetworkBuildError, match="build_key"):
            network.reset(deeper)
        assert network.config is config.network

    def test_reset_allocates_no_vc_storage(self):
        """A VC's buffer is its front flit and counts: reset reuses every VC."""
        _, _, network = _saturated_network()
        vcs = list(network.vcs)
        assert any(vc.count or vc.in_flight for vc in vcs)
        network.reset()
        assert len(network.vcs) == len(vcs)
        assert all(vc is before for vc, before in zip(network.vcs, vcs))
        assert all((vc.front, vc.count, vc.in_flight) == (0, 0, 0) for vc in vcs)

    def test_dispose_frees_the_network_without_the_cycle_collector(self):
        _, _, network = _saturated_network()
        alive = weakref.ref(network)
        switch = weakref.ref(next(iter(network.switches.values())))
        gc.disable()
        try:
            network.dispose()
            del network
            assert alive() is None
            assert switch() is None
        finally:
            gc.enable()


def _served(memo, config):
    """What :func:`execute_task` takes from ``memo`` for one task."""
    system = memo.system(config)
    return system, memo.network(system.topology, config.network)


class TestBuildMemo:
    def test_same_config_is_served_from_the_memo(self):
        memo = BuildMemo()
        config = small_system_config(Architecture.WIRELESS)
        system, network = _served(memo, config)
        again, same_network = _served(memo, config)
        assert again.multichip is system.multichip
        assert again.router is system.router
        assert same_network is network
        assert network.topology is system.topology

    def test_network_variants_share_one_topology(self):
        """Variants with the same build fields share one network; another
        WI buffer depth gets its own, on the same topology and router."""
        memo = BuildMemo()
        config = small_system_config(Architecture.WIRELESS)
        # The token MAC's whole-packet WI depth (8 flits) equals the
        # partial-packet MACs' two buffer windows here.
        variants = (
            small_system_config(Architecture.WIRELESS, mac="token"),
            config.with_wireless(num_channels=1, sleepy_receivers=False),
            small_system_config(Architecture.WIRELESS, mac="fdma"),
        )
        system, network = _served(memo, config)
        assert system.config is config
        for variant in variants:
            variant_system, variant_network = _served(memo, variant)
            assert variant_system.router is system.router
            assert variant_system.config is variant
            assert variant_network is network
        deeper = config.with_wireless(wi_buffer_depth_flits=16)
        deep_system, deep_network = _served(memo, deeper)
        assert deep_system.router is system.router
        assert deep_network is not network
        assert deep_network.topology is network.topology
        assert deep_network.config == deeper.network

    def test_memo_is_bounded_and_frees_what_it_evicts(self):
        memo = BuildMemo()
        configs = [small_system_config(a) for a in Architecture]
        assert len(configs) > max(BuildMemo.SYSTEMS, BuildMemo.NETWORKS)
        system, network = _served(memo, configs[0])
        evicted = (weakref.ref(system.multichip), weakref.ref(network))
        del system, network
        gc.disable()
        try:
            for config in configs[1:]:
                _served(memo, config)
            assert len(memo._systems) == BuildMemo.SYSTEMS
            assert len(memo._networks) == BuildMemo.NETWORKS
            assert [ref() for ref in evicted] == [None, None]
        finally:
            gc.enable()
        memo.clear()
        assert not memo._systems and not memo._networks


def _all_routes(router, switches):
    routes = {}
    for src in switches:
        for dst in switches:
            try:
                routes[(src, dst)] = router.route(src, dst)
            except RoutingError:
                routes[(src, dst)] = None
    return routes


def test_routes_are_shared_across_task_seeds():
    """Dijkstra breaks ties on (source, destination, switch), never the seed.

    A router the memo serves to tasks with different seeds and loads
    must route every pair exactly as a fresh router does.
    """
    config = small_system_config(Architecture.INTERPOSER)
    runner._BUILD_MEMO.clear()
    for seed, load in ((3, 0.05), (17, 0.2), (101, 0.1)):
        execute_task(uniform_task(config, _Fidelity(seed=seed), load=load))
    system = runner._BUILD_MEMO.system(config)
    assert system.router._cache, "the tasks must have warmed the shared router"
    switches = [s.switch_id for s in system.topology.switches]
    fresh = ShortestPathRouter(build_system(config).topology)
    assert _all_routes(system.router, switches) == _all_routes(fresh, switches)


# ----------------------------------------------------------------------
# Faulted tasks leave nothing behind for the next task.
# ----------------------------------------------------------------------

#: Two WIs per chip, so every fault scenario finds a transceiver it can
#: kill without cutting a chip off.
_CONFIG = replace(small_system_config(Architecture.WIRELESS), cores_per_wi=2)
_PRISTINE = uniform_task(_CONFIG, _Fidelity(), load=0.08)

_FRESH_PROCESS = """
import json, types
from dataclasses import replace
from repro.core.config import Architecture
from repro.parallel.runner import execute_task, uniform_task
from repro.testing import small_system_config
fidelity = types.SimpleNamespace(cycles={cycles}, warmup_cycles={warmup_cycles}, seed={seed})
config = replace(small_system_config(Architecture.WIRELESS), cores_per_wi=2)
print(json.dumps(execute_task(uniform_task(config, fidelity, load={load}))))
"""


@pytest.fixture(scope="module")
def fresh_pristine_payload():
    """The pristine task's payload, computed in a new interpreter."""
    code = _FRESH_PROCESS.format(
        cycles=_PRISTINE.cycles,
        warmup_cycles=_PRISTINE.warmup_cycles,
        seed=_PRISTINE.seed,
        load=_PRISTINE.load,
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(output)


@pytest.mark.parametrize(
    "scenario", [name for name in available_fault_scenarios() if name != "none"]
)
def test_pristine_task_after_a_faulted_one_matches_a_fresh_process(
    scenario, fresh_pristine_payload
):
    runner._BUILD_MEMO.clear()
    faulted = uniform_task(_CONFIG, _Fidelity(), load=0.08, faults=scenario, fault_rate=0.5)
    assert execute_task(faulted)["fault_events_applied"] > 0
    pristine = json.loads(json.dumps(execute_task(_PRISTINE)))
    assert pristine == fresh_pristine_payload
