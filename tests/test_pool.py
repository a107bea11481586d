"""Array-backed data-plane tests: the packet pool and handle leaks.

The pooled core's contract (see :mod:`repro.noc.pool`):

* pooled records read back exactly as allocated, across pool growth and
  handle recycling;
* **no handle ever leaks** — after any run (including faulted runs with
  purged packets), the pool's books (``allocated == freed + live``, free
  list + live = capacity) reconcile exactly with the handles reachable
  from the simulation state (source queues, VC rings, serialisation state,
  in-flight arrivals), and the flit-conservation counters of the fault
  subsystem still hold.  Property-tested over load, seed, and fault
  scenario;
* pool growth mid-run leaves results unchanged: the kernel's hot array
  caches stay views of the grown columns.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architectures import build_system
from repro.core.config import Architecture
from repro.energy import EnergyAccountant
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import create_fault_plan
from repro.noc.engine import SimulationConfig
from repro.noc.kernel import SimulationKernel
from repro.noc.network import Network
from repro.noc.pool import (
    FLIT_INDEX_BITS,
    FLIT_INDEX_MASK,
    MAX_PACKET_LENGTH_FLITS,
    PacketPool,
    PacketView,
)
from repro.noc.stats import SimulationResult
from repro.parallel.runner import execute_task, uniform_task
from repro.scenario.fidelity import Fidelity
from repro.testing import small_system_config
from repro.traffic.registry import create_pattern


def _alloc(pool, pid=0, length=4, route=(0, 1)):
    return pool.alloc(
        pid=pid,
        src_endpoint=0,
        dst_endpoint=1,
        src_switch=route[0],
        dst_switch=route[-1],
        length_flits=length,
        generation_cycle=0,
        route=list(route),
        is_memory_access=False,
        is_reply=False,
        measured=True,
        traffic_class="data",
    )


class TestFlitPacking:
    def test_packing_constants_consistent(self):
        assert FLIT_INDEX_MASK == (1 << FLIT_INDEX_BITS) - 1
        assert MAX_PACKET_LENGTH_FLITS == FLIT_INDEX_MASK + 1

    def test_overlong_packet_rejected(self):
        pool = PacketPool()
        with pytest.raises(ValueError):
            _alloc(pool, length=MAX_PACKET_LENGTH_FLITS + 1)
        with pytest.raises(ValueError):
            _alloc(pool, length=0)

    def test_bad_route_rejected(self):
        pool = PacketPool()
        with pytest.raises(ValueError):
            pool.alloc(
                pid=0,
                src_endpoint=0,
                dst_endpoint=1,
                src_switch=0,
                dst_switch=2,
                length_flits=4,
                generation_cycle=0,
                route=[0, 1],
                is_memory_access=False,
                is_reply=False,
                measured=True,
                traffic_class="data",
            )


class TestPacketPoolLifecycle:
    def test_alloc_free_recycles_handles(self):
        pool = PacketPool()
        first = _alloc(pool, pid=1)
        pool.free(first)
        second = _alloc(pool, pid=2)
        assert second == first  # LIFO recycling
        assert pool.allocated_total == 2
        assert pool.freed_total == 1
        assert pool.live_count == 1
        assert len(pool.free_list) + pool.live_count == pool.capacity

    def test_pids_survive_handle_recycling(self):
        pool = PacketPool()
        first = _alloc(pool, pid=11)
        pool.free(first)
        second = _alloc(pool, pid=12)
        assert pool.pid[second] == 12

    def test_view_reads_the_fields_delivery_callbacks_use(self):
        pool = PacketPool()
        _alloc(pool, pid=1)
        handle = pool.alloc(
            pid=2,
            src_endpoint=5,
            dst_endpoint=9,
            src_switch=0,
            dst_switch=1,
            length_flits=4,
            generation_cycle=0,
            route=[0, 1],
            is_memory_access=True,
            is_reply=False,
            measured=True,
            traffic_class="memory_read",
        )
        view = PacketView(pool, handle)
        assert (view.src_endpoint, view.dst_endpoint) == (5, 9)
        assert view.is_memory_access and not view.is_reply
        assert view.traffic_class == "memory_read"


#: One pool operation: ``("alloc", length)`` or ``("free", which)`` where
#: ``which`` picks a live handle (modulo the live count, oldest first).
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=5)),
    ),
    min_size=1,
    max_size=600,
)


def _apply_ops(pool, ops):
    """Run one op sequence; returns {handle: expected record dict}."""
    live = []
    expected = {}
    pid = 0
    for op, value in ops:
        if op == "alloc":
            pid += 1
            handle = pool.alloc(
                pid=pid,
                src_endpoint=pid % 7,
                dst_endpoint=(pid + 3) % 7,
                src_switch=1,
                dst_switch=2,
                length_flits=value,
                generation_cycle=pid * 2,
                route=[1, 2],
                is_memory_access=bool(pid % 2),
                is_reply=bool(pid % 3 == 0),
                measured=bool(pid % 5),
                traffic_class="request",
            )
            live.append(handle)
            expected[handle] = {
                "pid": pid,
                "src_endpoint": pid % 7,
                "dst_endpoint": (pid + 3) % 7,
                "length_flits": value,
                "generation_cycle": pid * 2,
                "is_memory_access": bool(pid % 2),
                "is_reply": bool(pid % 3 == 0),
                "measured": bool(pid % 5),
            }
        elif live:
            handle = live.pop(value % len(live))
            pool.free(handle)
            del expected[handle]
    return expected


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_pool_records_survive_grow_and_recycle(ops):
    """Live records read back exactly as allocated at every pool size."""
    pool = PacketPool()
    expected = _apply_ops(pool, ops)
    assert len(pool.free_list) + pool.live_count == pool.capacity
    for handle, record in expected.items():
        for column, value in record.items():
            assert getattr(pool, column)[handle] == value
        assert pool.route[handle] == [1, 2]
        assert pool.injection_cycle[handle] is None


@settings(max_examples=25, deadline=None)
@given(ops=_OPS)
def test_pool_conservation_invariant(ops):
    pool = PacketPool()
    expected = _apply_ops(pool, ops)
    assert pool.allocated_total == pool.freed_total + pool.live_count
    assert sorted(pool.live_handles()) == sorted(expected)


def _run_kernel(architecture, rate, seed, cycles, faults=None, fault_rate=0.0):
    """Run one simulation through the kernel, returning (state, result)."""
    config = small_system_config(architecture)
    system = build_system(config)
    network = Network(system.topology, config.network)
    accountant = EnergyAccountant(technology=config.network.technology)
    for fabric in network.fabrics:
        fabric.bind_accountant(accountant)
    result = SimulationResult(
        cycles=cycles, warmup_cycles=cycles // 4, num_cores=8
    )
    traffic = create_pattern(
        "uniform",
        system.topology,
        injection_rate=rate,
        memory_access_fraction=0.25,
        seed=seed,
    )
    injector = None
    if faults is not None and faults != "none":
        plan = create_fault_plan(
            faults,
            system.topology,
            fault_rate=fault_rate,
            seed=seed,
            cycles=cycles,
        )
        if not plan.is_empty:
            injector = FaultInjector(plan, network, system.router, result)
    kernel = SimulationKernel(
        network=network,
        router=system.router,
        traffic=traffic,
        accountant=accountant,
        result=result,
        config=SimulationConfig(cycles=cycles, warmup_cycles=cycles // 4),
        net_config=config.network,
        fault_injector=injector,
    )
    traffic.reset()
    try:
        state = kernel.run()
    finally:
        if injector is not None:
            injector.restore()
    result.flits_residual_end = state.residual_flits()
    return state, result


def reachable_handles(state):
    """Every pool handle reachable from the live simulation state."""
    reachable = set()
    for queue in state.source_queues.values():
        reachable.update(queue)
    for switch in state.network.switches.values():
        for port in switch.input_port_list:
            for vc in port.vcs:
                if vc.source_packet is not None:
                    reachable.add(vc.source_packet)
                for flit in vc.buffer:
                    reachable.add(flit >> FLIT_INDEX_BITS)
    for entries in state.arrivals.values():
        for _, flit in entries:
            reachable.add(flit >> FLIT_INDEX_BITS)
    return reachable


def assert_no_handle_leaks(state, result):
    """The pool's books reconcile exactly with the reachable handles."""
    pool = state.pool
    # Books are internally consistent.
    assert pool.allocated_total == pool.freed_total + pool.live_count
    assert len(pool.free_list) + pool.live_count == pool.capacity
    assert len(set(pool.free_list)) == len(pool.free_list)
    # Every live handle is reachable from the simulation state and every
    # reachable handle is live: nothing leaked, nothing freed early.
    assert set(pool.live_handles()) == reachable_handles(state)
    # The pool never allocates more records than packets that entered a
    # source queue.
    assert pool.allocated_total <= result.packets_generated
    # PR 3's flit-conservation counters still hold over the pooled core.
    assert result.flits_injected == (
        result.flits_ejected_total
        + result.flits_residual_end
        + result.flits_dropped_unroutable
    )


class TestHandleConservation:
    def test_clean_run_frees_every_delivered_packet(self):
        state, result = _run_kernel(Architecture.SUBSTRATE, 0.03, seed=3, cycles=400)
        assert result.packets_delivered > 0
        assert state.pool.freed_total == result.packets_delivered
        assert_no_handle_leaks(state, result)

    def test_wireless_run_reconciles(self):
        state, result = _run_kernel(Architecture.WIRELESS, 0.05, seed=5, cycles=400)
        assert result.packets_delivered > 0
        assert_no_handle_leaks(state, result)

    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.sampled_from([0.0, 0.01, 0.05, 0.15]),
        seed=st.integers(min_value=0, max_value=10_000),
        faults=st.sampled_from(["none", "random-links"]),
        fault_rate=st.sampled_from([0.1, 0.3]),
    )
    def test_property_pool_never_leaks_handles(self, rate, seed, faults, fault_rate):
        """Property: free list + live + delivered reconcile on every run.

        Sweeps load (idle through congested), seed, and fault injection
        (including runs that purge packets and drop queued handles), and
        checks the full reconciliation after each: pool books consistent,
        live handles exactly the reachable ones, flit conservation intact.
        """
        state, result = _run_kernel(
            Architecture.SUBSTRATE,
            rate,
            seed=seed,
            cycles=300,
            faults=faults,
            fault_rate=fault_rate,
        )
        assert_no_handle_leaks(state, result)


class TestPoolGrowth:
    def test_growth_mid_run_keeps_results(self, monkeypatch):
        """A pool that grows many times mid-run gives the same summary.

        The kernel caches the pool's columns and the pool grows them in
        place, so the caches stay valid.  The default chunk (256 records)
        exceeds what this small system ever holds live; a chunk of 8
        forces several amortised-doubling growths while packets are in
        flight.  Results do not depend on capacity, so the payloads match.
        """
        capacities = []
        grow = PacketPool._grow

        def recording_grow(pool):
            grow(pool)
            capacities.append(pool.capacity)

        monkeypatch.setattr(PacketPool, "_grow", recording_grow)
        fidelity = Fidelity("tiny", cycles=400, warmup_cycles=100, load_points=(), applications=())
        task = uniform_task(small_system_config(Architecture.SUBSTRATE), fidelity, load=0.15)
        baseline = execute_task(task)
        assert capacities == [256]
        capacities.clear()
        monkeypatch.setattr("repro.noc.pool._GROWTH_CHUNK", 8)
        assert execute_task(task) == baseline
        assert capacities[0] == 8 and capacities[-1] > 32


class TestConfigCeiling:
    def test_oversized_packet_length_rejected_at_config_time(self):
        """A jumbo packet config fails at construction, not mid-run."""
        from repro.noc.config import NetworkConfig

        with pytest.raises(ValueError, match="packed flit index"):
            NetworkConfig(packet_length_flits=MAX_PACKET_LENGTH_FLITS + 1)
        # The ceiling itself is a valid configuration.
        config = NetworkConfig(packet_length_flits=MAX_PACKET_LENGTH_FLITS)
        assert config.packet_length_flits == MAX_PACKET_LENGTH_FLITS
