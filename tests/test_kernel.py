"""Parity and scheduling tests for the phase-structured simulation kernel.

The central guarantee of the kernel refactor: the active-set scheduler
(which skips idle and blocked switches) reproduces the dense reference
scheduler (the original engine's visit-everything loop) *bit for bit* —
same counters, same per-packet latency samples, same energy breakdown,
same MAC statistics — on every architecture, under synthetic and
application traffic, and through fault recovery.  The dense scheduler is the parity
oracle of the one kernel the simulator has.

The kernel's per-VC allocation state is pinned too: body flits follow the
downstream VC their head claimed (``send_target``), and corrupted VC
ownership or routing state ends a run in a ``KernelInvariantError``.  Both
schedulers share the round-robin arbitration, so parity cannot check it;
``TestArbitration`` compares its winners with the rank rule directly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.architectures import build_system
from repro.core.config import Architecture, SystemConfig
from repro.core.framework import MultichipSimulation
from repro.energy import EnergyAccountant
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import create_fault_plan
from repro.noc import KernelInvariantError
from repro.noc.engine import SCHEDULERS, SimulationConfig, Simulator
from repro.noc.fabric import Fabric
from repro.noc.kernel import (
    ActiveSetScheduler,
    DenseScheduler,
    KernelState,
    SimulationKernel,
    SimulationStallError,
    make_scheduler,
)
from repro.noc.network import Network
from repro.noc.pool import FLIT_INDEX_BITS, FLIT_INDEX_MASK
from repro.noc.stats import SimulationResult
from repro.parallel.runner import BuildMemo, task_simulator
from repro.scenario.compiler import compile_scenario
from repro.scenario.fuzz import random_scenario
from repro.scenario.spec import parse_scenario
from repro.testing import small_network_config, small_system_config
from repro.traffic.base import TrafficModel, TrafficRequest
from repro.traffic.registry import create_pattern
from repro.traffic.synfull import SynfullApplicationTraffic
from repro.wireless.mac.registry import available_macs

#: The four comparison systems: a single-chip mesh baseline plus the
#: paper's three multichip interconnect architectures.
ARCHITECTURES = {
    "mesh": lambda: SystemConfig(
        architecture=Architecture.SUBSTRATE,
        num_chips=1,
        cores_per_chip=8,
        num_memory_stacks=2,
        vaults_per_stack=2,
        cores_per_wi=4,
        total_processing_area_mm2=100.0,
        network=small_network_config(),
    ),
    "substrate": lambda: small_system_config(Architecture.SUBSTRATE),
    "interposer": lambda: small_system_config(Architecture.INTERPOSER),
    "wireless": lambda: small_system_config(Architecture.WIRELESS),
}


def result_fingerprint(result):
    """Everything that must be identical between the two schedulers."""
    return {
        "packets_offered": result.packets_offered,
        "packets_generated": result.packets_generated,
        "packets_delivered": result.packets_delivered,
        "packets_delivered_measured": result.packets_delivered_measured,
        "flits_injected": result.flits_injected,
        "flits_ejected_measured": result.flits_ejected_measured,
        "flit_hops": result.flit_hops,
        "wireless_flit_hops": result.wireless_flit_hops,
        "latencies": tuple(result.latencies_cycles),
        "network_latencies": tuple(result.network_latencies_cycles),
        "packet_energies": tuple(result.packet_energies_pj),
        "packet_hops": tuple(result.packet_hops),
        "energy": result.energy.as_dict(),
        "mac_statistics": result.mac_statistics,
        "sleep_fraction": result.transceiver_sleep_fraction,
        "offered_load": result.offered_load_packets_per_core_per_cycle,
    }


def run_with_scheduler(
    config, traffic_factory, scheduler, cycles=500, faults=None, memo=None, profile=False
):
    """One run on a fresh build, or on the system and network ``memo`` serves."""
    network = None
    if memo is None:
        system = build_system(config)
    else:
        system = memo.system(config)
        network = memo.network(system.topology, config.network)
    traffic = traffic_factory(system)
    fault_plan = None
    if faults is not None:
        fault_plan = create_fault_plan(
            faults, system.topology, fault_rate=0.15, seed=7, cycles=cycles
        )
        assert not fault_plan.is_empty
    simulator = Simulator(
        topology=system.topology,
        router=system.router,
        traffic=traffic,
        network_config=config.network,
        simulation_config=SimulationConfig(
            cycles=cycles,
            warmup_cycles=cycles // 4,
            scheduler=scheduler,
            profile_phases=profile,
        ),
        fault_plan=fault_plan,
    )
    simulator.network = network
    return simulator.run()


def uniform_factory(rate=0.03, seed=11):
    def make(system):
        return create_pattern(
            "uniform",
            system.topology,
            injection_rate=rate,
            memory_access_fraction=0.25,
            seed=seed,
        )

    return make


def synfull_factory(application="canneal", seed=5):
    def make(system):
        return SynfullApplicationTraffic.from_name(
            system.topology, application, rate_scale=0.4, seed=seed
        )

    return make


def make_kernel(system, config, traffic, sim_config, scheduler=None):
    """A kernel over a fresh network of ``system``, driven directly."""
    network = Network(system.topology, config.network)
    accountant = EnergyAccountant(technology=config.network.technology)
    for fabric in network.fabrics:
        fabric.bind_accountant(accountant)
    result = SimulationResult(
        cycles=sim_config.cycles,
        warmup_cycles=sim_config.warmup_cycles,
        num_cores=8,
    )
    kernel = SimulationKernel(
        network=network,
        router=system.router,
        traffic=traffic,
        accountant=accountant,
        result=result,
        config=sim_config,
        net_config=config.network,
        scheduler=scheduler,
    )
    return kernel, result


class TestKernelParity:
    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_uniform_parity_across_architectures(self, name):
        config = ARCHITECTURES[name]()
        dense = run_with_scheduler(config, uniform_factory(), "dense")
        active = run_with_scheduler(config, uniform_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_synfull_parity_across_architectures(self, name):
        config = ARCHITECTURES[name]()
        dense = run_with_scheduler(config, synfull_factory(), "dense")
        active = run_with_scheduler(config, synfull_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    @pytest.mark.parametrize("name", sorted(ARCHITECTURES))
    def test_faulted_parity_across_architectures(self, name):
        """Recovery rerouting wakes switches through ``on_fault``: still exact."""
        config = ARCHITECTURES[name]()
        dense = run_with_scheduler(config, uniform_factory(), "dense", faults="random-links")
        active = run_with_scheduler(config, uniform_factory(), "active", faults="random-links")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_with_memory_replies(self):
        """Reply traffic (delivery callbacks re-queue packets) stays identical."""

        def factory(system):
            from repro.traffic.uniform import UniformRandomTraffic

            return UniformRandomTraffic(
                system.topology,
                injection_rate=0.03,
                memory_access_fraction=0.3,
                memory_replies=True,
                seed=3,
            )

        config = small_system_config(Architecture.WIRELESS)
        dense = run_with_scheduler(config, factory, "dense")
        active = run_with_scheduler(config, factory, "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_at_saturating_load(self):
        """Wake sets must also match when the network is congested."""
        config = small_system_config(Architecture.INTERPOSER)
        dense = run_with_scheduler(config, uniform_factory(rate=0.3), "dense")
        active = run_with_scheduler(config, uniform_factory(rate=0.3), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)

    def test_parity_under_token_mac(self):
        config = small_system_config(Architecture.WIRELESS, mac="token")
        dense = run_with_scheduler(config, uniform_factory(), "dense")
        active = run_with_scheduler(config, uniform_factory(), "active")
        assert result_fingerprint(dense) == result_fingerprint(active)


class TestWarmMemo:
    """The fingerprint matrix does not depend on what ran before it.

    Every cell runs once on a fresh build, then twice through one memo:
    forwards, and in reverse.  All but the first cell of each architecture
    run on a network the previous cell left mid-flight, and route on a
    router earlier cells (faulted ones included) warmed.
    """

    CELLS = [
        (name, traffic, faults, scheduler)
        for name in sorted(ARCHITECTURES)
        for traffic, faults in (("uniform", None), ("synfull", None), ("uniform", "random-links"))
        for scheduler in SCHEDULERS
    ]

    @staticmethod
    def _fingerprint(cell, memo=None):
        name, traffic, faults, scheduler = cell
        factory = uniform_factory() if traffic == "uniform" else synfull_factory()
        config = ARCHITECTURES[name]()
        return result_fingerprint(
            run_with_scheduler(config, factory, scheduler, faults=faults, memo=memo)
        )

    def test_matrix_is_unchanged_through_a_warm_memo_in_both_orders(self):
        fresh = {cell: self._fingerprint(cell) for cell in self.CELLS}
        memo = BuildMemo()
        for order in (self.CELLS, self.CELLS[::-1]):
            for cell in order:
                assert self._fingerprint(cell, memo) == fresh[cell], cell


class TestSchedulerSelection:
    def test_known_schedulers(self):
        assert isinstance(make_scheduler("dense"), DenseScheduler)
        assert isinstance(make_scheduler("active"), ActiveSetScheduler)
        assert set(SCHEDULERS) == {"active", "dense"}

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("bogus")
        with pytest.raises(ValueError, match="unknown scheduler"):
            SimulationConfig(cycles=100, warmup_cycles=10, scheduler="bogus")

    def test_default_is_active(self):
        assert SimulationConfig().scheduler == "active"


class TestProfiledPhases:
    """The names and order of the profiled phases.

    The end-to-end benchmark's per-phase metrics read these keys of
    ``phase_seconds`` (``benchmarks/e2e/layers.py::KERNEL_PHASES``).
    """

    PRISTINE = ["arrival", "generation", "injection", "fabric", "allocation"]

    # The substrate system has no fabric to advance and still reports the
    # fabric phase.
    @pytest.mark.parametrize("name", ["substrate", "wireless"])
    def test_a_pristine_run_reports_the_five_phases_in_order(self, name):
        result = run_with_scheduler(
            ARCHITECTURES[name](), uniform_factory(), "active", cycles=200, profile=True
        )
        assert list(result.phase_seconds) == self.PRISTINE

    def test_a_faulted_run_reports_the_faults_phase_first(self):
        result = run_with_scheduler(
            ARCHITECTURES["wireless"](),
            uniform_factory(),
            "active",
            cycles=200,
            faults="random-links",
            profile=True,
        )
        assert list(result.phase_seconds) == ["faults", *self.PRISTINE]

    def test_an_unprofiled_run_reports_no_phases(self):
        result = run_with_scheduler(
            ARCHITECTURES["mesh"](), uniform_factory(), "active", cycles=200
        )
        assert result.phase_seconds == {}


class TestActiveSetBookkeeping:
    def test_idle_network_visits_no_switches(self):
        """At zero load the wake sets stay empty for the whole run."""
        config = small_system_config(Architecture.WIRELESS)
        system = build_system(config)
        traffic = uniform_factory(rate=0.0)(system)
        scheduler = ActiveSetScheduler()
        kernel, _ = make_kernel(
            system,
            config,
            traffic,
            SimulationConfig(cycles=200, warmup_cycles=50),
            scheduler=scheduler,
        )
        traffic.reset()
        visited = []
        kernel.state.allocate = lambda order, cycle, *rest: visited.extend(order)
        kernel.state.inject = lambda switch, cycle: visited.append(switch)
        kernel.run()
        assert not visited
        assert not scheduler._alloc_active
        assert not scheduler._inject_active

    def test_wake_sets_drain_after_traffic_stops(self):
        """Once all packets deliver, every switch goes back to sleep."""

        class OneShotTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        system = build_system(config)
        scheduler = ActiveSetScheduler()
        kernel, result = make_kernel(
            system,
            config,
            OneShotTraffic(system.topology),
            SimulationConfig(cycles=400, warmup_cycles=0),
            scheduler=scheduler,
        )
        kernel.run()
        assert result.packets_delivered == 1
        assert not scheduler._alloc_active
        assert not scheduler._inject_active
        assert not _registered_sleepers(scheduler)
        switches = kernel.state.network.switches.values()
        assert not any(switch.occupied for switch in switches)


def _saturated_kernel(architecture, cycles=300):
    """A kernel stopped after ``cycles`` of saturating load, flits in flight."""
    config = small_system_config(architecture)
    system = build_system(config)
    traffic = create_pattern(
        "uniform", system.topology, injection_rate=0.5, memory_access_fraction=0.3, seed=5
    )
    kernel, _ = make_kernel(
        system, config, traffic, SimulationConfig(cycles=cycles, warmup_cycles=50)
    )
    kernel.run()
    assert kernel.state.residual_flits() > 0
    return kernel


def _continue(kernel, cycles):
    """Run ``cycles`` more cycles of a kernel that finished its run.

    The cycles run past the configured end, phase by phase and with the
    watchdog as in ``SimulationKernel.run`` (past warm-up, so no anchoring).
    """
    state = kernel.state
    for cycle in range(state.cycle + 1, state.cycle + 1 + cycles):
        state.cycle = cycle
        for _, step in kernel.steps:
            step(cycle)
        state.check_watchdog(cycle)


def _front_flits(network):
    """``(vc, handle, index)`` for every VC holding a flit."""
    for switch in network.switches.values():
        for vc in switch.vc_by_ordinal:
            if vc.count:
                yield vc, vc.front >> FLIT_INDEX_BITS, vc.front & FLIT_INDEX_MASK


def assert_send_targets_consistent(state):
    """Body flits know their downstream VC; unowned VCs cache nothing."""
    pid = state.pool.pid
    bodies = 0
    for vc, handle, index in _front_flits(state.network):
        if index and vc.downstream_port is not None:
            assert vc.send_target is not None
            assert vc.send_target.allocated_packet_id == pid[handle]
            assert vc.send_target.port is vc.downstream_port
            bodies += 1
    for vc in state.network.vcs:
        if vc.allocated_packet_id is None:
            assert vc.send_target is None
    return bodies


def _registered_sleepers(scheduler):
    """Ids of switches with a registered wake-up condition."""
    ids = set()
    for waiting in scheduler.space_waiters.values():
        ids |= waiting
    for timed in scheduler._timed_wakes.values():
        ids.update(timed)
    return ids


class TestBlockedSwitchesSleep:
    """A switch whose every request is blocked sleeps until a wake event."""

    @pytest.mark.parametrize("architecture", [Architecture.SUBSTRATE, Architecture.WIRELESS])
    def test_every_buffering_switch_is_awake_or_waiting(self, architecture):
        kernel = _saturated_kernel(architecture)
        scheduler = kernel.scheduler
        switches = kernel.state.network.switches.values()
        slept = 0
        for _ in range(6):
            buffering = {switch.switch_id for switch in switches if switch.occupied}
            asleep = buffering - scheduler._alloc_active
            assert asleep <= _registered_sleepers(scheduler)
            slept += len(asleep)
            _continue(kernel, 37)
        assert slept

    def test_a_fault_wakes_every_sleeper(self):
        """A fault purge can free buffers anywhere, so no switch sleeps through it."""
        kernel = _saturated_kernel(Architecture.SUBSTRATE)
        scheduler = kernel.scheduler
        sleepers = _registered_sleepers(scheduler) - scheduler._alloc_active
        assert sleepers
        scheduler.on_fault(kernel.state.network.switches[0])
        assert sleepers <= scheduler._alloc_active
        assert not _registered_sleepers(scheduler)

    def test_blocked_visits_are_mostly_skipped(self):
        blocked = {}
        for scheduler in SCHEDULERS:
            config = small_system_config(Architecture.SUBSTRATE)
            system = build_system(config)
            traffic = create_pattern(
                "uniform", system.topology, injection_rate=0.5, memory_access_fraction=0.3, seed=5
            )
            kernel, _ = make_kernel(
                system,
                config,
                traffic,
                SimulationConfig(cycles=300, warmup_cycles=50, scheduler=scheduler),
            )
            allocate = kernel.state.allocate
            outcomes = []

            def counting(order, cycle, *rest, allocate=allocate, outcomes=outcomes):
                blocked_visits = allocate(order, cycle, *rest)
                outcomes.append(blocked_visits)
                return blocked_visits

            kernel.state.allocate = counting
            kernel.run()
            blocked[scheduler] = sum(outcomes)
        assert blocked["active"] * 3 < blocked["dense"]


class TestSendTarget:
    """The downstream VC a head flit claims is reused by its body flits."""

    def test_body_flits_point_at_their_packets_downstream_vc(self):
        kernel = _saturated_kernel(Architecture.WIRELESS)
        assert assert_send_targets_consistent(kernel.state) > 0

    def test_purge_and_reset_clear_the_target(self):
        kernel = _saturated_kernel(Architecture.WIRELESS)
        state = kernel.state
        network = state.network
        handle = next(
            handle
            for vc, handle, index in _front_flits(network)
            if index and vc.send_target is not None
        )
        pid = state.pool.pid[handle]
        holders = [vc for vc in network.vcs if vc.allocated_packet_id == pid]
        assert any(vc.send_target is not None for vc in holders)
        plan = FaultPlan(scenario="none", fault_rate=0.0, seed=0, events=())
        injector = FaultInjector(plan, network, state.router, state.result)
        injector._purge_packet(handle, state)
        assert all(vc.send_target is None for vc in holders)
        assert_send_targets_consistent(state)
        network.reset()
        assert all(vc.send_target is None for vc in network.vcs)


class _StubFabric(Fabric):
    """A point-to-point fabric whose admission the test sets."""

    always_grants = False

    def __init__(self, transmit, refused):
        self.transmit = transmit
        self.refused = refused

    def may_transmit(self, src_switch_id):
        return self.transmit

    def grants(self, src_switch_id, packet_id, dst_switch_id, is_head):
        return packet_id not in self.refused


class TestArbitration:
    """Each output sends the eligible requester of minimum round-robin rank.

    The active and dense schedulers share :meth:`KernelState.allocate`, so
    their parity cannot catch a wrong winner.  These tests build the
    requests of one switch by hand, run one allocation visit, and compare
    the winners and the new pointer with the rank rule computed here:
    ``(ordinal - rr_pointer) % rr_modulus``, lowest first.
    """

    TRIALS = 300
    CYCLE = 10
    LENGTH = 4

    @pytest.fixture
    def bench(self):
        config = small_system_config(Architecture.SUBSTRATE)
        system = build_system(config)
        traffic = create_pattern(
            "uniform", system.topology, injection_rate=0.1, memory_access_fraction=0.0, seed=1
        )
        kernel, _ = make_kernel(
            system, config, traffic, SimulationConfig(cycles=100, warmup_cycles=0)
        )
        state = kernel.state
        # The switch with the most VCs arbitrates among the most requesters.
        switch = max(state.network.switches.values(), key=lambda s: s.rr_modulus)
        return state, switch

    @staticmethod
    def _packet(state, switch, front_index, next_switch):
        """A pooled packet whose flit ``front_index`` is at the front of a VC."""
        pool = state.pool
        handle = pool.alloc(
            pid=state.next_packet_id,
            src_endpoint=0,
            dst_endpoint=0,
            src_switch=switch.switch_id,
            dst_switch=switch.switch_id if next_switch is None else next_switch,
            length_flits=TestArbitration.LENGTH,
            generation_cycle=0,
            route=[switch.switch_id] + ([] if next_switch is None else [next_switch]),
            is_memory_access=False,
            is_reply=False,
            measured=True,
            traffic_class="test",
        )
        state.next_packet_id += 1
        return handle, (handle << FLIT_INDEX_BITS) | front_index

    def _request(self, state, switch, vc, output, front_index):
        """Make ``vc`` hold one flit of a fresh packet routed over ``output``."""
        handle, flit = self._packet(state, switch, front_index, output.downstream_switch)
        vc.front = flit
        vc.count = 1
        vc.allocated_packet_id = state.pool.pid[handle]
        vc.current_output = output
        vc.downstream_port = output.downstream_port
        vc.downstream_switch = output.downstream_switch
        switch.occupied.add(vc.ordinal)
        return state.pool.pid[handle]

    @staticmethod
    def _ranked(vcs, pointer, modulus):
        return sorted(vcs, key=lambda vc: (vc.ordinal - pointer) % modulus)

    @staticmethod
    def _reset(state):
        state.network.reset()
        state.arrivals.clear()

    def test_an_output_sends_the_eligible_requester_of_minimum_rank(self, bench):
        state, switch = bench
        rng = random.Random(36)
        modulus = switch.rr_modulus
        outputs = [o for o in switch.output_ports.values() if not o.is_ejection]
        seen = Counter()
        for _ in range(self.TRIALS):
            self._reset(state)
            output = rng.choice(outputs)
            built_fabric = output.fabric
            downstream = output.downstream_port.vcs
            free_vc = rng.random() < 0.6
            stub = None
            if rng.random() < 0.5:
                stub = _StubFabric(transmit=rng.random() < 0.8, refused=set())
            requesters = rng.sample(switch.vc_by_ordinal, rng.randint(2, 8))
            # Each body flit's head claimed its own downstream VC; a free VC
            # is left over only when heads may claim one.
            bodies = rng.randint(0, min(len(requesters), len(downstream) - free_vc))
            eligible, passed_space = [], []
            for position, vc in enumerate(requesters):
                if position < bodies:
                    pid = self._request(state, switch, vc, output, front_index=1)
                    target = downstream[position]
                    target.allocated_packet_id = pid
                    vc.send_target = target
                    full = rng.random() < 0.4
                    target.in_flight = target.capacity if full else 0
                    has_space = not full
                    kind = "space-blocked" if full else "body"
                else:
                    pid = self._request(state, switch, vc, output, front_index=0)
                    has_space = free_vc
                    kind = "head" if free_vc else "no-free-vc"
                refused = stub is not None and rng.random() < 0.3
                if refused:
                    stub.refused.add(pid)
                if has_space:
                    passed_space.append(vc)
                    if not refused:
                        eligible.append(vc)
                seen["grant-refused" if has_space and refused else kind] += 1
            for taken in downstream[bodies:]:
                if not free_vc:
                    taken.allocated_packet_id = -1 - taken.index
            if stub is not None:
                output.fabric = stub
                if not stub.transmit:
                    eligible = []
            if eligible and rng.random() < 0.5:
                # The pointer on an eligible requester: it must win.
                pointer = rng.choice(eligible).ordinal
            else:
                pointer = rng.randrange(modulus)
            output.rr_pointer = pointer
            before = {vc: vc.count for vc in requesters}
            try:
                blocked = state.allocate([switch.switch_id], self.CYCLE)
            finally:
                output.fabric = built_fabric
            sent = [vc for vc in requesters if vc.count < before[vc]]
            if eligible:
                winner = self._ranked(eligible, pointer, modulus)[0]
                assert sent == [winner]
                assert output.rr_pointer == (winner.ordinal + 1) % modulus
                assert blocked == 0
                seen["pointer on winner" if winner.ordinal == pointer else "pointer elsewhere"] += 1
                seen["contested" if len(eligible) > 1 else "single"] += 1
            else:
                assert sent == []
                assert output.rr_pointer == pointer
                # Blocked only when every request waits on downstream space
                # and none reached the fabric's admission control.
                reached_fabric = stub is not None and (not stub.transmit or passed_space)
                assert blocked == (not reached_fabric)
                seen["nothing eligible"] += 1
        # Every kind of requester and outcome occurred.
        for case in (
            "body", "head", "space-blocked", "no-free-vc", "grant-refused",
            "pointer on winner", "pointer elsewhere", "contested", "nothing eligible",
        ):
            assert seen[case] >= 10, (case, seen)

    @pytest.mark.parametrize("width", [2, 4])
    def test_an_ejection_port_serves_its_first_width_requesters(self, bench, width):
        state, switch = bench
        rng = random.Random(width)
        modulus = switch.rr_modulus
        output = switch.ejection_port
        contested = 0
        try:
            for _ in range(self.TRIALS // 3):
                self._reset(state)
                output.width = width
                requesters = rng.sample(switch.vc_by_ordinal, rng.randint(2, 8))
                for vc in requesters:
                    self._request(state, switch, vc, output, front_index=0)
                    vc.downstream_port = None
                    vc.downstream_switch = None
                pointer = rng.choice([rng.choice(requesters).ordinal, rng.randrange(modulus)])
                output.rr_pointer = pointer
                state.allocate([switch.switch_id], self.CYCLE)
                winners = self._ranked(requesters, pointer, modulus)[:width]
                ejected = [vc for vc in requesters if vc.count == 0]
                assert set(ejected) == set(winners)
                assert output.rr_pointer == (winners[-1].ordinal + 1) % modulus
                contested += len(requesters) > width
        finally:
            output.width = 1
        assert contested >= 10

    @pytest.mark.parametrize("mac", available_macs())
    def test_every_grant_goes_to_a_wi_that_may_transmit(self, mac):
        """``may_transmit`` is a necessary condition of ``grants``.

        After every fabric update, each WI's pending packets are offered to
        ``grants`` directly (not only the ones the kernel asks about), and
        every grant, the kernel's and the probe's, must find
        ``may_transmit`` true for its WI.
        """
        config = small_system_config(Architecture.WIRELESS, mac=mac)
        system = build_system(config)
        traffic = create_pattern(
            "uniform", system.topology, injection_rate=0.1, memory_access_fraction=0.25, seed=3
        )
        kernel, _ = make_kernel(
            system, config, traffic, SimulationConfig(cycles=400, warmup_cycles=100)
        )
        (fabric,) = [f for f in kernel.state.network.fabrics if f.is_wireless]
        grants, update = fabric.grants, fabric.update
        granted = []

        def checked_grants(src_switch_id, packet_id, dst_switch_id, is_head):
            answer = grants(src_switch_id, packet_id, dst_switch_id, is_head)
            if answer:
                assert fabric.may_transmit(src_switch_id), (mac, src_switch_id)
                granted.append(src_switch_id)
            return answer

        def probed_update(cycle):
            update(cycle)
            for wi in fabric.wi_switch_ids:
                rows = range(fabric.scan_pending(wi))
                pending = [
                    (fabric.pend_pid[row], fabric.pend_dst[row], bool(fabric.pend_head[row]))
                    for row in rows
                ]
                for packet_id, dst, is_head in pending:
                    checked_grants(wi, packet_id, dst, is_head)

        fabric.grants = checked_grants
        fabric.update = probed_update
        kernel.run()
        # Grants went to several WIs over the run.
        assert len(set(granted)) > 1


class TestKernelInvariants:
    """Corrupted live state ends the run in a typed error, not a stall."""

    def test_body_flit_into_a_vc_owned_by_another_packet(self):
        kernel = _saturated_kernel(Architecture.INTERPOSER)
        vc = next(
            vc
            for vc, _, index in _front_flits(kernel.state.network)
            if index and vc.send_target is not None
        )
        vc.send_target.allocated_packet_id = -1
        with pytest.raises(KernelInvariantError, match="sent to VC owned by -1"):
            _continue(kernel, 400)

    def test_arrival_without_a_reservation(self):
        kernel = _saturated_kernel(Architecture.INTERPOSER)
        arrivals = kernel.state.arrivals
        target = arrivals[min(arrivals)][0]
        target.in_flight = 0
        with pytest.raises(KernelInvariantError, match="without a matching reservation"):
            _continue(kernel, 10)

    def test_head_into_a_vc_owned_by_another_packet(self):
        """A VC claimed between a head's eligibility scan and its send."""
        kernel = _saturated_kernel(Architecture.WIRELESS)
        network = kernel.state.network
        fabric = next(fabric for fabric in network.fabrics if fabric.is_wireless)
        grants = fabric.grants

        def grants_then_claim(switch_id, packet_id, downstream_switch, is_head):
            granted = grants(switch_id, packet_id, downstream_switch, is_head)
            if granted and is_head:
                for vc in network.switches[switch_id].vc_by_ordinal:
                    target = vc.send_target
                    if target is not None and target.allocated_packet_id is None:
                        target.allocated_packet_id = -1
            return granted

        fabric.grants = grants_then_claim
        with pytest.raises(
            KernelInvariantError, match="VC already allocated to packet -1, cannot accept head"
        ):
            _continue(kernel, 400)

    def test_head_found_off_its_route(self):
        kernel = _saturated_kernel(Architecture.INTERPOSER)
        state = kernel.state
        pool = state.pool
        # A target VC with nothing buffered and a head at the front of its
        # run has that head in flight.
        handle = next(
            target.front >> FLIT_INDEX_BITS
            for entries in state.arrivals.values()
            for target in entries
            if not target.count
            and not target.front & FLIT_INDEX_MASK
            and target.port.switch.switch_id != pool.dst_switch[target.front >> FLIT_INDEX_BITS]
        )
        pool.head_hop[handle] += 1
        with pytest.raises(KernelInvariantError, match="head expected at switch"):
            _continue(kernel, 10)


def assert_vc_runs(state):
    """Every VC holds one run of consecutive flits of the packet that owns it.

    A buffered VC's front flit belongs to its owner (the packet that claimed
    it, or on a local VC the packet being serialised into it), and the
    run's flits, buffered and in flight, fit in that packet.  Every arrival
    targets an owned VC, as many times as the VC has flits in flight.
    Returns how many buffered VCs were checked.
    """
    pool = state.pool
    checked = 0
    for switch in state.network.switches.values():
        for ordinal in switch.occupied:
            vc = switch.vc_by_ordinal[ordinal]
            owner = vc.allocated_packet_id
            if owner is None and vc.source_packet is not None:
                owner = pool.pid[vc.source_packet]
            handle = vc.front >> FLIT_INDEX_BITS
            index = vc.front & FLIT_INDEX_MASK
            assert vc.count and owner is not None
            assert pool.pid[handle] == owner
            assert index + vc.count + vc.in_flight <= pool.length_flits[handle]
            if vc.source_packet is not None:
                assert handle == vc.source_packet
                assert index + vc.count == vc.source_flits_emitted
            checked += 1
    arriving = Counter(target for entries in state.arrivals.values() for target in entries)
    for target, flits in arriving.items():
        assert target.allocated_packet_id is not None
        assert target.in_flight == flits
    return checked


class TestVcRuns:
    """A VC's buffer is a run of one packet's flits, after every cycle.

    The fuzzed scenarios' synthetic loads are raised to 0.1, which congests
    their small networks, so heads wait for free VCs and, with faults,
    packets are rerouted and purged mid-flight.
    """

    SEEDS = range(6)

    @pytest.mark.parametrize("faults", ["none", "random-links"])
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_cycle_keeps_one_run_per_vc(self, monkeypatch, scheduler, faults):
        checked = []
        watchdog = KernelState.check_watchdog

        def checking(state, cycle):
            checked.append(assert_vc_runs(state))
            if cycle == state.config.cycles - 1:
                # The occupied sets the per-cycle check walks are complete.
                for switch in state.network.switches.values():
                    held = {vc.ordinal for vc in switch.vc_by_ordinal if vc.count}
                    assert held == switch.occupied
            watchdog(state, cycle)

        monkeypatch.setattr(KernelState, "check_watchdog", checking)
        rerouted = purged = 0
        for seed in self.SEEDS:
            (task,) = compile_scenario(parse_scenario(random_scenario(seed)))
            cycles = min(task.cycles, 300)
            task = replace(
                task,
                cycles=cycles,
                warmup_cycles=cycles // 4,
                load=task.load and 0.1,
                faults=faults,
                fault_rate=0.3 if faults != "none" else 0.0,
            )
            simulator = task_simulator(task)
            simulator.simulation_config = replace(
                simulator.simulation_config, scheduler=scheduler
            )
            result = simulator.run()
            rerouted += result.packets_rerouted
            purged += result.flits_dropped_unroutable
        assert sum(checked) > 0
        assert bool(rerouted and purged) == (faults != "none")

    def test_purge_removes_exactly_the_packets_arrivals(self):
        kernel = _saturated_kernel(Architecture.INTERPOSER)
        state = kernel.state
        # Each arrival with the packet that owned its target before the purge.
        before = {
            key: [(target, target.allocated_packet_id) for target in entries]
            for key, entries in state.arrivals.items()
        }
        owners = Counter(owner for entries in before.values() for _, owner in entries)
        assert len(owners) > 1
        pid = max(owners, key=lambda owner: (owners[owner], owner))
        handle = next(
            target.front >> FLIT_INDEX_BITS
            for entries in before.values()
            for target, owner in entries
            if owner == pid
        )
        assert state.pool.pid[handle] == pid != handle
        in_flight = {
            target: target.in_flight for entries in before.values() for target, _ in entries
        }
        buffered = sum(vc.count for vc in state.network.vcs if vc.allocated_packet_id == pid)
        dropped = state.result.flits_dropped_unroutable
        plan = FaultPlan(scenario="none", fault_rate=0.0, seed=0, events=())
        injector = FaultInjector(plan, state.network, state.router, state.result)
        injector._purge_packet(handle, state)
        expected = {}
        for key, entries in before.items():
            kept = [target for target, owner in entries if owner != pid]
            if kept:
                expected[key] = kept
        assert state.arrivals == expected
        for target, flits in in_flight.items():
            assert target.in_flight == (0 if target.allocated_packet_id is None else flits)
        assert state.result.flits_dropped_unroutable == dropped + owners[pid] + buffered
        assert_vc_runs(state)


class TestFuzzedParity:
    """The fuzzer's scenarios also run identically under both schedulers.

    The first 64 seeds (about 2 s of simulation) cross every MAC protocol,
    multi-channel wireless fabrics, congested loads, in-flight rerouting
    and fault purges, which the hand-picked matrix above does not; the test
    asserts that coverage so a generator change cannot quietly shrink it.
    """

    SEEDS = range(64)

    def test_fuzzed_scenarios_match_across_schedulers(self):
        macs, channels, loads, rerouted, purged = set(), set(), set(), 0, 0
        for seed in self.SEEDS:
            raw = random_scenario(seed)
            macs.update(raw.get("macs", ()))
            channels.update(raw.get("channels", ()))
            loads.update(raw["traffic"].get("loads", ()))
            for task in compile_scenario(parse_scenario(raw)):
                cycles = min(task.cycles, 300)
                task = replace(
                    task, cycles=cycles, warmup_cycles=min(task.warmup_cycles, cycles // 4)
                )
                results = []
                for scheduler in SCHEDULERS:
                    simulator = task_simulator(task)
                    simulator.simulation_config = replace(
                        simulator.simulation_config, scheduler=scheduler
                    )
                    results.append(simulator.run())
                first, second = (result_fingerprint(result) for result in results)
                assert first == second, (seed, task.label)
                rerouted += results[0].packets_rerouted
                purged += results[0].flits_dropped_unroutable
        assert macs == set(available_macs())
        assert max(channels) > 1
        # Congested runs reroute around faults many times more often than
        # the light loads alone (11 packets over these seeds).
        assert max(loads) >= 0.2
        assert rerouted >= 100 and purged


class TestWatchdog:
    def _kernel(self, traffic, config, sim_config):
        system = build_system(config)
        return make_kernel(system, config, traffic(system), sim_config)

    def test_watchdog_still_catches_real_stalls(self):
        """A packet parked forever in a source queue must still trip it."""

        class StuckTraffic(TrafficModel):
            """Queues one packet, then the test blocks all injection."""

            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=300, warmup_cycles=0, watchdog_cycles=50
        )
        kernel, _ = self._kernel(lambda s: StuckTraffic(s.topology), config, sim_config)
        # Fill every local VC of every switch with a fake owner so the
        # queued packet can never be injected: no progress, traffic in
        # flight -> the watchdog must fire.
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        with pytest.raises(SimulationStallError):
            kernel.run()

    def test_warmup_boundary_reanchors_watchdog(self):
        """Cold-start cycles before warm-up no longer feed the watchdog.

        A packet sits undeliverable in a source queue from cycle 0 (all
        local VCs pre-claimed).  Without the warm-up re-anchor the
        watchdog would fire at ``watchdog_cycles`` (300 < 500); with it,
        the countdown restarts at the warm-up boundary (cycle 250) and the
        run completes.
        """

        class StuckTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=500, warmup_cycles=250, watchdog_cycles=300
        )
        kernel, result = self._kernel(
            lambda s: StuckTraffic(s.topology), config, sim_config
        )
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        kernel.run()  # must not raise: the anchor moved to cycle 250
        assert result.packets_delivered == 0

    def test_phase_change_reanchors_watchdog_after_progress(self):
        """A quiet phase following a productive one extends the countdown.

        Packet A (deliverable) makes real progress early; packet B is
        parked undeliverable in a source queue on the other chip (its
        source switch's local VCs are pre-claimed).  The phase token
        changes once, at cycle 100 — after the progress — which re-anchors
        the watchdog there.  The stall therefore fires at exactly cycle
        100 + watchdog_cycles instead of ~A's-delivery + watchdog_cycles,
        proving the anchor moved.
        """

        class PhasedTraffic(TrafficModel):
            def generate(self, cycle):
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[1])
                    yield TrafficRequest(self._cores[-1], self._cores[0])

            def phase_token(self):
                return 1 if getattr(self, "_past", False) else 0

            def on_past(self):
                self._past = True

        traffic_holder = {}

        def factory(system):
            traffic_holder["traffic"] = PhasedTraffic(system.topology)
            return traffic_holder["traffic"]

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=400, warmup_cycles=0, watchdog_cycles=100
        )
        kernel, result = self._kernel(factory, config, sim_config)

        # Flip the phase token at cycle 100 by piggybacking on generate.
        traffic = traffic_holder["traffic"]
        original_generate = traffic.generate

        def generate(cycle):
            if cycle == 100:
                traffic.on_past()
            return original_generate(cycle)

        traffic.generate = generate

        # Park packet B forever: claim its source switch's local VCs.
        stuck_source = traffic.cores[-1]
        switch = kernel.state.network.switch_for_endpoint(stuck_source)
        for vc in switch.local_input.vcs:
            vc.allocated_packet_id = 10_000 + vc.ordinal

        with pytest.raises(SimulationStallError, match="at cycle 200"):
            kernel.run()
        assert result.packets_delivered == 1  # A's progress happened first

    def test_fast_cycling_phases_cannot_mask_a_deadlock(self):
        """Phase changes without progress must not suppress the watchdog.

        One undeliverable packet sits in a source queue (all local VCs
        pre-claimed) while the phase token changes every 40 cycles — far
        faster than ``watchdog_cycles``.  Re-anchoring is gated on
        progress, so only the first change (progress level 0 is not above
        the anchor mark) is ignored and the stall still raises.
        """

        class PhasedTraffic(TrafficModel):
            def __init__(self, topology):
                super().__init__(topology)
                self._window = 0

            def generate(self, cycle):
                self._window = cycle // 40
                if cycle == 0:
                    yield TrafficRequest(self._cores[0], self._cores[-1])

            def phase_token(self):
                return self._window

        config = small_system_config(Architecture.INTERPOSER)
        sim_config = SimulationConfig(
            cycles=300, warmup_cycles=0, watchdog_cycles=50
        )
        kernel, _ = self._kernel(
            lambda s: PhasedTraffic(s.topology), config, sim_config
        )
        for switch in kernel.state.network.switches.values():
            for vc in switch.local_input.vcs:
                vc.allocated_packet_id = 10_000 + vc.ordinal
        with pytest.raises(SimulationStallError):
            kernel.run()


class TestSelfThroughput:
    def test_result_records_wall_clock_and_rates(self):
        config = small_system_config(Architecture.WIRELESS)
        result = run_with_scheduler(config, uniform_factory(), "active", cycles=300)
        assert result.wall_clock_seconds > 0
        assert result.simulated_cycles_per_second() > 0
        assert result.simulated_flits_per_second() > 0
        summary = result.summary()
        assert summary["sim_cycles_per_second"] == pytest.approx(
            result.simulated_cycles_per_second()
        )

    def test_facade_still_works_through_framework(self):
        simulation = MultichipSimulation.from_config(
            small_system_config(Architecture.WIRELESS),
            SimulationConfig(cycles=300, warmup_cycles=50),
        )
        result = simulation.run_pattern("transpose", injection_rate=0.05, seed=2)
        assert result.packets_delivered > 0
