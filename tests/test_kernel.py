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
ownership or routing state ends a run in a ``KernelInvariantError``.
"""

from __future__ import annotations

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
from repro.noc.kernel import (
    ActiveSetScheduler,
    DenseScheduler,
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


def run_with_scheduler(config, traffic_factory, scheduler, cycles=500, faults=None, memo=None):
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
        kernel.state.allocate = lambda switch, cycle: visited.append(switch)
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
        for phase in kernel.phases:
            phase.run(cycle)
        state.check_watchdog(cycle)


def _front_flits(network):
    """``(vc, handle, index)`` for every VC holding a flit."""
    for switch in network.switches.values():
        for vc in switch.vc_list:
            if vc.count:
                flit = vc.buf[vc.head]
                yield vc, flit >> FLIT_INDEX_BITS, flit & FLIT_INDEX_MASK


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
    for vc in state.network._vcs:
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

            def counting(switch, cycle, allocate=allocate, outcomes=outcomes):
                outcome = allocate(switch, cycle)
                outcomes.append(outcome)
                return outcome

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
        holders = [vc for vc in network._vcs if vc.allocated_packet_id == pid]
        assert any(vc.send_target is not None for vc in holders)
        plan = FaultPlan(scenario="none", fault_rate=0.0, seed=0, events=())
        injector = FaultInjector(plan, network, state.router, state.result)
        injector._purge_packet(handle, state)
        assert all(vc.send_target is None for vc in holders)
        assert_send_targets_consistent(state)
        network.reset()
        assert all(vc.send_target is None for vc in network._vcs)


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
        target, _ = arrivals[min(arrivals)][0]
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
                for vc in network.switches[switch_id].vc_list:
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
        handle = next(
            flit >> FLIT_INDEX_BITS
            for entries in state.arrivals.values()
            for target, flit in entries
            if not flit & FLIT_INDEX_MASK
            and target.port.switch.switch_id != pool.dst_switch[flit >> FLIT_INDEX_BITS]
        )
        pool.head_hop[handle] += 1
        with pytest.raises(KernelInvariantError, match="head expected at switch"):
            _continue(kernel, 10)


class TestFuzzedParity:
    """The fuzzer's scenarios also run identically under both schedulers.

    The first 64 seeds (about 2 s of simulation) cross every MAC protocol,
    multi-channel wireless fabrics, in-flight rerouting and fault purges,
    which the hand-picked matrix above does not; the test asserts that
    coverage so a generator change cannot quietly shrink it.
    """

    SEEDS = range(64)

    def test_fuzzed_scenarios_match_across_schedulers(self):
        macs, channels, rerouted, purged = set(), set(), 0, 0
        for seed in self.SEEDS:
            raw = random_scenario(seed)
            macs.update(raw.get("macs", ()))
            channels.update(raw.get("channels", ()))
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
        assert rerouted and purged


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
