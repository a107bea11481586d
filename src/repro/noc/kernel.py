"""The phase-structured simulation kernel.

Mirrors the simulator described in Section IV of the paper: it
"characterizes the multichip architecture and models the progress of the
flits over the switches and links per cycle accounting for those flits that
reach the destination as well as those that are stalled".

Each simulated cycle executes five explicit phases, in order:

1. :class:`ArrivalPhase` — flits whose fabric traversal completes this
   cycle are appended to their reserved downstream VC buffers.
2. :class:`GenerationPhase` — the traffic model emits new packets into the
   per-endpoint source queues; routes are assigned from the pre-computed
   shortest paths.
3. :class:`InjectionPhase` — source queues feed flits into free local-port
   VCs (one flit per cycle per switch, more for multi-endpoint memory dies).
4. :class:`FabricPhase` — every fabric with time-dependent state advances
   (the wireless fabric's channel arbitration and transceiver power states).
5. :class:`AllocationPhase` — switches arbitrate their output ports among
   the VCs requesting them (round-robin), move the winning flits onto their
   fabric or the ejection port, perform credit-equivalent space reservation
   downstream, and charge energy.

Runs carrying a non-empty fault plan prepend a :class:`FaultPhase` that
applies due fault events and triggers routing recovery (see
:mod:`repro.faults.injector`) before anything else moves in the cycle;
fault-free runs execute exactly the five phases above.

The data plane is array-backed (see :mod:`repro.noc.pool`): packets live in
a :class:`~repro.noc.pool.PacketPool` of parallel arrays addressed by
integer handles, flits are packed ``(handle, index)`` integers, VC buffers
are fixed-capacity rings of those integers, and per-packet routes are
compiled once into dense per-hop output-port tables.  The hot phase bodies
below inline the ring and pool arithmetic — no flit or packet object is
created, hashed, or attribute-chased anywhere on the per-flit path.  Only
traffic delivery callbacks see an object: a
:class:`~repro.noc.pool.PacketView` of the delivered packet.

The injection and allocation phase loops are run by a :class:`Scheduler`
(``run_injection`` / ``run_allocation``), which calls the per-switch
:meth:`KernelState.inject` and :meth:`KernelState.allocate` bodies.  The
:class:`DenseScheduler` visits every switch every cycle — a faithful
transliteration of the original monolithic engine loop — while the
:class:`ActiveSetScheduler` keeps *wake sets* of switches that can possibly
make progress (buffered flits for allocation, queued or partially
serialised packets for injection), iterates them in switch-id order and
lets a drained switch sleep at the end of its visit.  A switch whose
allocation visit was blocked (every request waiting on a busy output or on
downstream buffer space) sleeps as well, until the output frees or a
downstream pop makes room.  Skipped switches are exactly those for which
the dense pass would be a no-op, so the two schedulers are bit-identical
(the parity tests in ``tests/test_kernel.py`` prove it); the active-set
scheduler is simply several times faster at the low and mid loads that
dominate every figure sweep.

Wormhole allocation keeps per-VC routing state: a VC's head flit computes
its output port and downstream input port once, claims a free VC there, and
the body flits behind it reuse that downstream VC (``send_target``) until
the tail leaves.  Any inconsistency in this state — a flit delivered
without a reservation, a VC handed to two packets, a head off its route —
raises :class:`~repro.noc.virtual_channel.KernelInvariantError`, as do a
second transmitter on a wireless channel in one cycle (checked by the
wireless fabric) and broken end-of-run books (flit conservation, energy
reconciliation; checked when :class:`~repro.noc.engine.Simulator` settles).

A watchdog aborts the run if no flit makes progress for a configurable
number of cycles while traffic is still in flight, so routing or protocol
bugs surface as loud errors instead of silent hangs.  The watchdog is
re-anchored at the warm-up boundary and on traffic phase changes (see
:meth:`repro.traffic.base.TrafficModel.phase_token`), so long cold starts
and bursty phase-structured workloads cannot trip it spuriously; a phase
change only re-anchors when some flit has progressed since the previous
anchor, so fast-cycling phases can never mask a genuine deadlock.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Deque, Dict, List, Optional, Tuple

from ..energy import EnergyAccountant
from ..routing.base import BaseRouter, RoutingError
from ..traffic.base import TrafficModel, TrafficRequest
from .config import NetworkConfig
from .network import Network
from .pool import FLIT_INDEX_BITS, FLIT_INDEX_MASK, PacketPool, PacketView
from .stats import SimulationResult
from .switch import Switch
from .virtual_channel import KernelInvariantError, VirtualChannel

#: The scheduler names accepted by :class:`SimulationConfig`.
SCHEDULERS = ("active", "dense")


class SimulationStallError(RuntimeError):
    """Raised when no flit has moved for ``watchdog_cycles`` cycles."""


@dataclass(frozen=True)
class SimulationConfig:
    """Run-length and robustness parameters of one simulation."""

    cycles: int = 3000
    warmup_cycles: int = 300
    watchdog_cycles: int = 4000
    max_source_queue_packets: int = 16
    #: Per-cycle work-list strategy: ``"active"`` (wake sets, the default)
    #: or ``"dense"`` (visit every switch every cycle, the reference
    #: behaviour of the original engine).  Results are bit-identical.
    scheduler: str = "active"
    #: When set, the kernel times each phase per cycle and publishes the
    #: accumulated per-phase wall clock as ``SimulationResult.phase_seconds``
    #: (see the experiment CLI's ``--profile``).  Off by default: the timed
    #: loop costs two clock reads per phase per cycle.
    profile_phases: bool = False

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if not 0 <= self.warmup_cycles < self.cycles:
            raise ValueError("warmup_cycles must be in [0, cycles)")
        if self.watchdog_cycles <= 0:
            raise ValueError("watchdog_cycles must be positive")
        if self.max_source_queue_packets <= 0:
            raise ValueError("max_source_queue_packets must be positive")
        if self.scheduler not in SCHEDULERS:
            known = ", ".join(SCHEDULERS)
            raise ValueError(f"unknown scheduler {self.scheduler!r}; known: {known}")


# ----------------------------------------------------------------------
# Schedulers.
# ----------------------------------------------------------------------


class Scheduler:
    """Runs the injection and allocation phase loops over the switches.

    :meth:`run_injection` and :meth:`run_allocation` visit, in ascending
    switch-id order (the dense iteration order, so arbitration outcomes are
    identical under every scheduler), each switch the phase could change
    this cycle.  The kernel notifies the scheduler of every event that can
    wake a switch: a VC of it going from empty to holding a flit, a packet
    queued at one of its endpoints, buffer space opening at a downstream
    port it waits on, a fault-recovery pass touching it.
    """

    name = "scheduler"

    def __init__(self) -> None:
        #: Input port -> ids of switches sleeping until buffer space opens
        #: there.  The kernel reads it on every send to decide whether a pop
        #: must call :meth:`on_space_freed`; a scheduler that never lets a
        #: blocked switch sleep leaves it empty.
        self.space_waiters: Dict[object, set] = {}

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        """Attach the (sorted) switch lists of the network being run."""
        raise NotImplementedError

    def run_injection(self, state: "KernelState", cycle: int) -> None:
        """Run the injection phase of ``cycle`` over the switches."""
        raise NotImplementedError

    def run_allocation(self, state: "KernelState", cycle: int) -> None:
        """Run the allocation phase of ``cycle`` over the switches."""
        raise NotImplementedError

    def on_flit_buffered(self, switch: Switch) -> None:
        """A VC of ``switch`` went from empty to holding one flit.

        Flits joining a non-empty VC need no notification: they change
        neither the switch's ``occupied`` VC set (maintained by the kernel's
        ring operations) nor the front flit a visit arbitrates for, and a
        scheduler lets a switch holding flits sleep only on a condition of
        those front flits (see :meth:`on_space_freed`), so draining and
        refilling cost the schedulers nothing per flit.
        """

    def on_packet_queued(self, switch: Switch) -> None:
        """A packet joined a source queue of one of ``switch``'s endpoints."""

    def on_space_freed(self, port, switch_id: int) -> None:
        """A VC of ``port`` popped a flit out of a full buffer or sent its
        packet's tail while switches wait in ``space_waiters[port]``.

        Called from the allocation visit of switch ``switch_id``, which
        owns ``port``.
        """

    def on_fault(self, switch: Switch) -> None:
        """A fault-recovery pass touched ``switch`` (topology changed).

        Schedulers that skip idle switches must re-examine it: a head flit
        that was blocked on a failed component may have been rerouted onto a
        sendable output, so the switch needs a fresh visit even though no
        buffer or queue event fired.
        """


class DenseScheduler(Scheduler):
    """Visit every switch every cycle (the original engine's behaviour)."""

    name = "dense"

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        self._switches = switches
        self._injecting = injecting

    def run_injection(self, state: "KernelState", cycle: int) -> None:
        inject = state.inject
        for switch in self._injecting:
            inject(switch, cycle)

    def run_allocation(self, state: "KernelState", cycle: int) -> None:
        allocate = state.allocate
        for switch in self._switches:
            allocate(switch, cycle)


class ActiveSetScheduler(Scheduler):
    """Visit only switches that can possibly make progress.

    A switch is *allocation-active* while any of its VC buffers holds a
    flit, and *injection-active* while any attached endpoint has queued
    packets or a local VC is mid-serialisation.  Both conditions are
    exactly the preconditions under which the dense pass can mutate state,
    so skipping inactive switches never changes a simulation outcome —
    only the wall-clock cost of reaching it.  The wake sets hold switch
    ids; a visited switch that has drained leaves its set at the end of
    its visit.

    A switch whose allocation visit found every request blocked — on an
    output still serialising an earlier flit, or on a full or taken VC
    downstream — sleeps too, since until one of those conditions changes
    the dense pass would find it blocked again.  It wakes at the cycle its
    earliest busy output frees, when a VC of a downstream port it waits on
    pops a flit out of a full buffer or sends a tail (:meth:`on_space_freed`),
    when one of its empty VCs receives a flit, or on any fault.  A pop wakes
    a waiter with a higher id within the same pass, as the dense id-order
    pass would reach it after the popping switch.
    """

    name = "active"

    def bind(self, switches: List[Switch], injecting: List[Switch]) -> None:
        self._switch_of = {s.switch_id: s for s in switches}
        self._alloc_active: set = set()
        self._inject_active: set = set()
        #: Cycle -> ids of blocked switches whose earliest busy output frees
        #: then.
        self._timed_wakes: Dict[int, List[int]] = {}
        #: Visit order of the allocation pass while it runs (``None``
        #: between passes); :meth:`on_space_freed` inserts into it.
        self._pass: Optional[List[int]] = None

    def run_injection(self, state: "KernelState", cycle: int) -> None:
        active = self._inject_active
        if not active:
            return
        switch_of = self._switch_of
        inject = state.inject
        has_work = state.has_injection_work
        for switch_id in sorted(active):
            switch = switch_of[switch_id]
            inject(switch, cycle)
            if not has_work(switch):
                active.discard(switch_id)

    def run_allocation(self, state: "KernelState", cycle: int) -> None:
        active = self._alloc_active
        due = self._timed_wakes.pop(cycle, None)
        if due is not None:
            active.update(due)
        if not active:
            return
        switch_of = self._switch_of
        allocate = state.allocate
        # A list iterator reads the list by index, so switches that
        # on_space_freed inserts past the current one are visited this pass.
        order = self._pass = sorted(active)
        for switch_id in order:
            switch = switch_of[switch_id]
            if allocate(switch, cycle):
                active.discard(switch_id)
                self._sleep(switch, cycle)
            elif not switch.occupied:
                # The switch's occupied-VC set is authoritative: empty means
                # the dense pass would find nothing here either.
                active.discard(switch_id)
        self._pass = None

    def _sleep(self, switch: Switch, cycle: int) -> None:
        """Register a blocked switch's wake-up conditions.

        Every occupied VC of a blocked switch is routed to a non-ejection
        output: it waits for that output's ``busy_until`` or, with the
        output free, for space at its downstream port.
        """
        switch_id = switch.switch_id
        waiters = self.space_waiters
        wake = 0
        vc_by_ordinal = switch.vc_by_ordinal
        for ordinal in switch.occupied:
            vc = vc_by_ordinal[ordinal]
            busy_until = vc.current_output.busy_until
            if busy_until > cycle:
                if not wake or busy_until < wake:
                    wake = busy_until
                continue
            port = vc.downstream_port
            waiting = waiters.get(port)
            if waiting is None:
                waiters[port] = {switch_id}
            else:
                waiting.add(switch_id)
        if wake:
            timed = self._timed_wakes.get(wake)
            if timed is None:
                self._timed_wakes[wake] = [switch_id]
            else:
                timed.append(switch_id)

    def on_flit_buffered(self, switch: Switch) -> None:
        self._alloc_active.add(switch.switch_id)

    def on_packet_queued(self, switch: Switch) -> None:
        self._inject_active.add(switch.switch_id)

    def on_space_freed(self, port, switch_id: int) -> None:
        active = self._alloc_active
        order = self._pass
        for waiter in self.space_waiters.pop(port):
            if waiter not in active:
                active.add(waiter)
                if waiter > switch_id:
                    insort(order, waiter)

    def on_fault(self, switch: Switch) -> None:
        # Recovery can purge buffers and reroute heads anywhere, so every
        # sleeping switch re-examines its requests.
        active = self._alloc_active
        for waiting in self.space_waiters.values():
            active.update(waiting)
        for timed in self._timed_wakes.values():
            active.update(timed)
        self.space_waiters.clear()
        self._timed_wakes.clear()
        if switch.occupied:
            active.add(switch.switch_id)
        # Let the next injection pass re-derive whether the switch has
        # source work; an extra visit self-corrects when it finds none.
        self._inject_active.add(switch.switch_id)


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by its :class:`SimulationConfig` name."""
    if name == "dense":
        return DenseScheduler()
    if name == "active":
        return ActiveSetScheduler()
    known = ", ".join(SCHEDULERS)
    raise ValueError(f"unknown scheduler {name!r}; known: {known}")


# ----------------------------------------------------------------------
# Kernel state: everything the phases mutate.
# ----------------------------------------------------------------------


class KernelState:
    """Mutable per-run state shared by the kernel's phases.

    Owns the run's :class:`~repro.noc.pool.PacketPool`; source queues hold
    packet handles, arrival events hold ``(target VC, flit integer)``
    pairs, and the phase bodies below manipulate the VC rings and pool
    arrays directly.
    """

    def __init__(
        self,
        network: Network,
        router: BaseRouter,
        traffic: TrafficModel,
        accountant: EnergyAccountant,
        result: SimulationResult,
        config: SimulationConfig,
        net_config: NetworkConfig,
        scheduler: Scheduler,
    ) -> None:
        self.network = network
        self.router = router
        self.traffic = traffic
        self.accountant = accountant
        self.result = result
        self.config = config
        self.net_config = net_config
        self.scheduler = scheduler
        self.pool = PacketPool()
        self.cycle = 0
        self.last_progress_cycle = 0
        #: Progress level at the last traffic-phase-change watchdog anchor
        #: (see :meth:`SimulationKernel.run`).
        self.anchored_progress = 0
        self.next_packet_id = 0
        #: Whether this run carries a fault plan (set by the kernel).  Only
        #: then may traffic generation encounter unreachable destinations,
        #: which are dropped with explicit accounting instead of raising.
        self.faults_active = False
        self.source_queues: Dict[int, Deque[int]] = {
            endpoint_id: deque() for endpoint_id in network.endpoint_switch
        }
        self.arrivals: Dict[int, List[Tuple[VirtualChannel, int]]] = {}
        self.switch_energy_pj = network.switch_dynamic_energy_pj_per_flit
        # Hot-loop caches.  The pooled arrays are stable list objects (the
        # pool grows them in place with ``extend``) and the breakdown is a
        # run-constant object behind an accountant property, so caching the
        # references here keeps the per-visit preludes to one attribute
        # load each.
        pool = self.pool
        self._pid = pool.pid
        self._length_flits = pool.length_flits
        self._head_hop = pool.head_hop
        self._energy = pool.energy_pj
        self.breakdown = accountant.breakdown
        self._space_waiters = scheduler.space_waiters

    # ------------------------------------------------------------------
    # Phase 1: arrivals.
    # ------------------------------------------------------------------

    def process_arrivals(self, cycle: int) -> None:
        due = self.arrivals.pop(cycle, None)
        if not due:
            return
        scheduler = self.scheduler
        for vc, flit in due:
            # The send reserved this slot: append the flit to the ring.
            if vc.in_flight <= 0:
                raise KernelInvariantError("flit arrived at a VC without a matching reservation")
            vc.in_flight -= 1
            count = vc.count
            vc.buf[(vc.head + count) % vc.capacity] = flit
            vc.count = count + 1
            if not count:
                switch = vc.port.switch
                switch.occupied.add(vc.ordinal)
                scheduler.on_flit_buffered(switch)
        self.last_progress_cycle = cycle

    # ------------------------------------------------------------------
    # Phase 2: traffic generation.
    # ------------------------------------------------------------------

    def generate_traffic(self, cycle: int) -> None:
        for request in self.traffic.generate(cycle):
            self.enqueue_request(request, cycle)

    def enqueue_request(self, request: TrafficRequest, cycle: int) -> None:
        """Turn a traffic request into a routed, pooled packet record."""
        self.result.packets_offered += 1
        queue = self.source_queues.get(request.src_endpoint)
        if queue is None:
            raise ValueError(f"unknown source endpoint {request.src_endpoint}")
        if len(queue) >= self.config.max_source_queue_packets:
            return  # finite source queue: the request is dropped at the source
        src_switch = self.network.switch_for_endpoint(request.src_endpoint)
        dst_switch = self.network.switch_for_endpoint(request.dst_endpoint)
        if src_switch.switch_id == dst_switch.switch_id:
            route = [src_switch.switch_id]
        else:
            try:
                route = self.router.route(src_switch.switch_id, dst_switch.switch_id)
            except RoutingError:
                if not self.faults_active:
                    raise
                # Fault-induced partition: the destination island is
                # unreachable, so the request is dropped *with accounting*.
                # It counts as generated so delivery_ratio weighs this loss
                # path the same as a packet purged after queueing.
                self.result.packets_generated += 1
                self.result.packets_dropped_unroutable += 1
                return
        length = request.length_flits or self.net_config.packet_length_flits
        handle = self.pool.alloc(
            pid=self.next_packet_id,
            src_endpoint=request.src_endpoint,
            dst_endpoint=request.dst_endpoint,
            src_switch=src_switch.switch_id,
            dst_switch=dst_switch.switch_id,
            length_flits=length,
            generation_cycle=cycle,
            route=route,
            is_memory_access=request.is_memory_access,
            is_reply=request.is_reply,
            measured=cycle >= self.config.warmup_cycles,
            traffic_class=request.traffic_class,
        )
        self.next_packet_id += 1
        self.compile_route_ports(handle)
        queue.append(handle)
        self.result.packets_generated += 1
        self.scheduler.on_packet_queued(src_switch)

    def compile_route_ports(self, handle: int) -> None:
        """Compile a pooled packet's route into its per-hop output ports.

        ``route_ports[i]`` is the output port at switch ``route[i]`` towards
        ``route[i + 1]``, so the allocation inner loop indexes a dense list
        instead of resolving the neighbour dictionary per head flit.  Fault
        recovery re-calls this after splicing a packet's route.
        """
        route = self.pool.route[handle]
        switches = self.network.switches
        self.pool.route_ports[handle] = [
            switches[route[i]].output_towards(route[i + 1])
            for i in range(len(route) - 1)
        ]

    # ------------------------------------------------------------------
    # Phase 3: injection.
    # ------------------------------------------------------------------

    def inject(self, switch: Switch, cycle: int) -> None:
        pool = self.pool
        pool_length = pool.length_flits
        scheduler = self.scheduler
        result = self.result
        budget = switch.injection_width
        local = switch.local_input
        # Continue serialising packets already owning a local VC.
        for vc in local.vcs:
            if budget == 0:
                return
            handle = vc.source_packet
            if handle is None:
                continue
            count = vc.count
            if count + vc.in_flight >= vc.capacity:
                continue
            index = vc.source_flits_emitted
            vc.buf[(vc.head + count) % vc.capacity] = (handle << FLIT_INDEX_BITS) | index
            vc.count = count + 1
            if not count:
                switch.occupied.add(vc.ordinal)
                scheduler.on_flit_buffered(switch)
            vc.source_flits_emitted = index + 1
            result.flits_injected += 1
            budget -= 1
            self.last_progress_cycle = cycle
            if index + 1 >= pool_length[handle]:
                vc.source_packet = None
                vc.source_flits_emitted = 0
        if budget == 0:
            return
        # Start injecting new packets from the attached endpoints.
        source_queues = self.source_queues
        for endpoint_id in switch.endpoints:
            if budget == 0:
                return
            queue = source_queues.get(endpoint_id)
            if not queue:
                continue
            vc = local.find_free_vc()
            if vc is None:
                return
            handle = queue.popleft()
            pool.injection_cycle[handle] = cycle
            vc.allocated_packet_id = pool.pid[handle]
            vc.source_packet = handle
            # A free VC is empty by definition, so this is a 0 -> 1 flit
            # transition: the VC joins the occupied set.
            vc.buf[vc.head] = handle << FLIT_INDEX_BITS
            vc.count = 1
            switch.occupied.add(vc.ordinal)
            scheduler.on_flit_buffered(switch)
            vc.source_flits_emitted = 1
            result.flits_injected += 1
            budget -= 1
            self.last_progress_cycle = cycle
            if pool_length[handle] <= 1:
                vc.source_packet = None
                vc.source_flits_emitted = 0

    def has_injection_work(self, switch: Switch) -> bool:
        """Whether the switch still has anything for the injection phase."""
        for vc in switch.local_input.vcs:
            if vc.source_packet is not None:
                return True
        source_queues = self.source_queues
        for endpoint_id in switch.endpoints:
            if source_queues.get(endpoint_id):
                return True
        return False

    # ------------------------------------------------------------------
    # Phase 5: switch allocation and traversal.
    # ------------------------------------------------------------------

    def allocate(self, switch: Switch, cycle: int) -> bool:
        """Arbitrate this switch's output ports and move the winning flits.

        One inlined pass over the compiled VC table: request collection
        (per-output scratch lists instead of a hashed dict), downstream VC
        lookup, flow-control and fabric admission, round-robin winner
        selection, and the send itself (ring pop, downstream reservation,
        arrival scheduling, energy attribution) all happen here on packed
        flit integers and pool arrays.  The structure and ordering mirror
        the historical ``_can_send``/``_send`` helpers exactly — the
        per-output processing order is first-request order, eligibility is
        evaluated in VC-table order, and every float is accumulated in the
        same sequence — so results are bit-identical to the object-based
        engine, several times faster.

        Returns whether the visit was *blocked*: nothing moved and every
        request waits on a busy output or on buffer space downstream, so
        another visit finds the same until one of those changes (see
        :class:`ActiveSetScheduler`).  A request that reached a fabric
        grant check, or an ejection request, never counts as blocked.
        """
        occupied = switch.occupied
        if not occupied:
            return False
        req_outputs = None
        assign = self._assign_output
        vc_by_ordinal = switch.vc_by_ordinal
        for ordinal in occupied if len(occupied) == 1 else sorted(occupied):
            vc = vc_by_ordinal[ordinal]
            output = vc.current_output
            if output is None:
                output = assign(switch, vc)
            scratch = output.request_scratch
            if not scratch:
                if req_outputs is None:
                    req_outputs = [output]
                else:
                    req_outputs.append(output)
            scratch.append(vc)
        if req_outputs is None:
            return False
        pool_pid = self._pid
        pool_length = self._length_flits
        pool_head_hop = self._head_hop
        pool_energy = self._energy
        breakdown = self.breakdown
        arrivals = self.arrivals
        switch_energy = self.switch_energy_pj
        result = self.result
        rr_modulus = switch.rr_modulus
        switch_id = switch.switch_id
        space_waiters = self._space_waiters
        blocked = True
        try:
            for output in req_outputs:
                vcs = output.request_scratch
                if output.is_ejection:
                    self._serve_ejection(switch, output, vcs, cycle)
                    blocked = False
                    continue
                if output.busy_until > cycle:
                    continue
                fabric = output.fabric
                check_grant = not fabric.always_grants
                eligible = None
                for vc in vcs:
                    downstream = vc.downstream_port
                    if downstream is None:
                        blocked = False
                        continue
                    flit = vc.buf[vc.head]
                    if flit & FLIT_INDEX_MASK:
                        # A body flit follows its head into the VC the head
                        # was sent to.
                        target = vc.send_target
                        if target is None:
                            blocked = False
                            continue
                        if target.count + target.in_flight >= target.capacity:
                            continue
                    else:
                        # A head flit needs a free VC: its packet owns none
                        # at the next switch, since routes never revisit one.
                        for target in downstream.vcs:
                            if (
                                target.allocated_packet_id is None
                                and target.count == 0
                                and target.in_flight == 0
                            ):
                                break
                        else:
                            continue
                        vc.send_target = target
                    if check_grant:
                        # A grant can change with the fabric's own state.
                        blocked = False
                        if not fabric.grants(
                            switch_id,
                            pool_pid[flit >> FLIT_INDEX_BITS],
                            vc.downstream_switch,
                            not flit & FLIT_INDEX_MASK,
                        ):
                            continue
                    if eligible is None:
                        eligible = [vc]
                    else:
                        eligible.append(vc)
                if eligible is None:
                    continue
                blocked = False
                # Round-robin winner (inline Switch.select_round_robin).
                if len(eligible) == 1:
                    winner = eligible[0]
                else:
                    pointer = output.rr_pointer
                    winner = None
                    best_rank = rr_modulus
                    for vc in eligible:
                        rank = (vc.ordinal - pointer) % rr_modulus
                        if rank < best_rank:
                            winner = vc
                            best_rank = rank
                output.rr_pointer = (winner.ordinal + 1) % rr_modulus
                # Send the winner's front flit (ring pop + downstream reservation).
                target = winner.send_target
                downstream_switch = winner.downstream_switch
                head = winner.head
                flit = winner.buf[head]
                winner.head = (head + 1) % winner.capacity
                winner.count -= 1
                if not winner.count:
                    occupied.discard(winner.ordinal)
                handle = flit >> FLIT_INDEX_BITS
                index = flit & FLIT_INDEX_MASK
                is_head = index == 0
                is_tail = index == pool_length[handle] - 1
                if is_tail:
                    winner.allocated_packet_id = None
                    winner.current_output = None
                    winner.downstream_port = None
                    winner.downstream_switch = None
                    winner.send_target = None
                if (
                    space_waiters
                    and (is_tail or winner.count + winner.in_flight + 1 >= winner.capacity)
                    and winner.port in space_waiters
                ):
                    self.scheduler.on_space_freed(winner.port, switch_id)
                pid = pool_pid[handle]
                owner = target.allocated_packet_id
                if is_head:
                    if owner is not None and owner != pid:
                        raise KernelInvariantError(
                            f"VC already allocated to packet {owner}, cannot "
                            f"accept head of packet {pid}"
                        )
                    target.allocated_packet_id = pid
                elif owner != pid:
                    raise KernelInvariantError(
                        f"body flit of packet {pid} sent to VC owned by {owner}"
                    )
                target.in_flight += 1
                link = output.link
                arrival_cycle = cycle + link.latency_cycles
                entry = arrivals.get(arrival_cycle)
                if entry is None:
                    arrivals[arrival_cycle] = [(target, flit)]
                else:
                    entry.append((target, flit))
                output.busy_until = cycle + link.cycles_per_flit
                breakdown.switch_dynamic_pj += switch_energy
                pool_energy[handle] += switch_energy
                link_energy = link.energy_pj_per_flit
                if fabric.is_wireless:
                    breakdown.wireless_pj += link_energy
                else:
                    breakdown.link_pj += link_energy
                pool_energy[handle] += link_energy
                result.flit_hops += 1
                if fabric.tracks_sends:
                    fabric.notify_sent(switch_id, pid, downstream_switch, is_tail, cycle)
                if is_head:
                    pool_head_hop[handle] += 1
                self.last_progress_cycle = cycle
        finally:
            for output in req_outputs:
                output.request_scratch.clear()
        return blocked

    def _assign_output(self, switch: Switch, vc: VirtualChannel):
        """Route the head flit at the front of ``vc`` (first visit only)."""
        pool = self.pool
        flit = vc.buf[vc.head]
        handle = flit >> FLIT_INDEX_BITS
        if flit & FLIT_INDEX_MASK:
            raise KernelInvariantError(
                f"VC {vc!r} has no routing state but its front flit is not a head"
            )
        if switch.switch_id == pool.dst_switch[handle]:
            output = switch.ejection_port
            vc.current_output = output
            vc.downstream_port = None
            vc.downstream_switch = None
            return output
        hop = pool.head_hop[handle]
        route = pool.route[handle]
        expected = route[hop]
        if expected != switch.switch_id:
            raise KernelInvariantError(
                f"packet {pool.pid[handle]} head expected at switch {expected} "
                f"but found at {switch.switch_id}"
            )
        output = pool.route_ports[handle][hop]
        next_switch = route[hop + 1]
        vc.current_output = output
        vc.downstream_switch = next_switch
        downstream = output.downstream_port
        if downstream is None:
            downstream = output.fabric.resolve_downstream(output, next_switch)
        vc.downstream_port = downstream
        return output

    def _serve_ejection(self, switch: Switch, output, vcs, cycle: int) -> None:
        if len(vcs) == 1:
            # One requester (always buffered): it wins the round-robin.
            winner = vcs[0]
            output.rr_pointer = (winner.ordinal + 1) % switch.rr_modulus
            self._eject(switch, winner, cycle)
            return
        budget = output.width
        candidates = [vc for vc in vcs if vc.count]
        while budget > 0 and candidates:
            winner = switch.select_round_robin(output, candidates)
            self._eject(switch, winner, cycle)
            candidates.remove(winner)
            budget -= 1

    def _eject(self, switch: Switch, vc: VirtualChannel, cycle: int) -> None:
        pool = self.pool
        head = vc.head
        flit = vc.buf[head]
        vc.head = (head + 1) % vc.capacity
        vc.count -= 1
        if not vc.count:
            switch.occupied.discard(vc.ordinal)
        handle = flit >> FLIT_INDEX_BITS
        index = flit & FLIT_INDEX_MASK
        is_tail = index == pool.length_flits[handle] - 1
        if is_tail:
            vc.release()
        space_waiters = self._space_waiters
        if (
            space_waiters
            and (is_tail or vc.count + vc.in_flight + 1 >= vc.capacity)
            and vc.port in space_waiters
        ):
            self.scheduler.on_space_freed(vc.port, switch.switch_id)
        switch_energy = self.switch_energy_pj
        self.breakdown.switch_dynamic_pj += switch_energy
        pool.energy_pj[handle] += switch_energy
        result = self.result
        result.flits_ejected_total += 1
        if cycle >= self.config.warmup_cycles:
            result.flits_ejected_measured += 1
        self.last_progress_cycle = cycle
        if not is_tail:
            return
        result.packets_delivered += 1
        if pool.measured[handle]:
            result.packets_delivered_measured += 1
            injection = pool.injection_cycle[handle]
            result.record_delivery(
                cycle - pool.generation_cycle[handle],
                None if injection is None else cycle - injection,
                pool.energy_pj[handle],
                len(pool.route[handle]) - 1,
            )
        for reply in self.traffic.on_packet_delivered(PacketView(pool, handle), cycle):
            self.enqueue_request(reply, cycle)
        pool.free(handle)

    # ------------------------------------------------------------------
    # Watchdog / accounting helpers.
    # ------------------------------------------------------------------

    def residual_flits(self) -> int:
        """Flits still buffered or mid-traversal (end-of-run conservation)."""
        return self.network.total_buffered_flits() + sum(
            len(entries) for entries in self.arrivals.values()
        )

    def anchor_watchdog(self, cycle: int) -> None:
        """Restart the stall countdown (warm-up boundary, phase change)."""
        if cycle > self.last_progress_cycle:
            self.last_progress_cycle = cycle

    def check_watchdog(self, cycle: int) -> None:
        if cycle - self.last_progress_cycle < self.config.watchdog_cycles:
            return
        in_flight = (
            self.network.total_buffered_flits() > 0
            or any(self.arrivals.values())
            or any(self.source_queues.values())
        )
        if not in_flight:
            self.last_progress_cycle = cycle
            return
        raise SimulationStallError(
            f"no flit progress for {self.config.watchdog_cycles} cycles at cycle "
            f"{cycle} with traffic still in flight (possible deadlock)"
        )


# ----------------------------------------------------------------------
# Phases.
# ----------------------------------------------------------------------


class Phase:
    """One step of the per-cycle pipeline."""

    name = "phase"

    def __init__(self, state: KernelState) -> None:
        self.state = state

    def run(self, cycle: int) -> None:
        raise NotImplementedError


class FaultPhase(Phase):
    """Apply due fault events and recover routing around them.

    Present only when the run carries a non-empty fault plan, so fault-free
    simulations execute exactly the same five-phase pipeline (and produce
    bit-identical results) as before the fault subsystem existed.  Runs
    first in the cycle: a component that dies at cycle *c* is gone before
    any flit moves in cycle *c*.
    """

    name = "faults"

    def __init__(self, state: KernelState, injector) -> None:
        super().__init__(state)
        self.injector = injector

    def run(self, cycle: int) -> None:
        self.injector.advance(cycle, self.state)


class ArrivalPhase(Phase):
    """Deliver flits whose fabric traversal completes this cycle."""

    name = "arrival"

    def run(self, cycle: int) -> None:
        self.state.process_arrivals(cycle)


class GenerationPhase(Phase):
    """Let the traffic model emit new packets into the source queues."""

    name = "generation"

    def run(self, cycle: int) -> None:
        self.state.generate_traffic(cycle)


class InjectionPhase(Phase):
    """Serialise queued packets into free local-port VCs."""

    name = "injection"

    def run(self, cycle: int) -> None:
        self.state.scheduler.run_injection(self.state, cycle)


class FabricPhase(Phase):
    """Advance every fabric with time-dependent state (MAC, transceivers)."""

    name = "fabric"

    def __init__(self, state: KernelState) -> None:
        super().__init__(state)
        self._fabrics = [f for f in state.network.fabrics if f.needs_update]

    def run(self, cycle: int) -> None:
        for fabric in self._fabrics:
            fabric.update(cycle)


class AllocationPhase(Phase):
    """Arbitrate output ports and move winning flits onto their fabric."""

    name = "allocation"

    def run(self, cycle: int) -> None:
        self.state.scheduler.run_allocation(self.state, cycle)


# ----------------------------------------------------------------------
# The kernel.
# ----------------------------------------------------------------------


class SimulationKernel:
    """Drives the five per-cycle phases over one network instance."""

    def __init__(
        self,
        network: Network,
        router: BaseRouter,
        traffic: TrafficModel,
        accountant: EnergyAccountant,
        result: SimulationResult,
        config: SimulationConfig,
        net_config: NetworkConfig,
        scheduler: Optional[Scheduler] = None,
        fault_injector=None,
    ) -> None:
        switches = [network.switches[sid] for sid in sorted(network.switches)]
        injecting = [s for s in switches if s.endpoints]
        self.scheduler = scheduler or make_scheduler(config.scheduler)
        self.scheduler.bind(switches, injecting)
        self.state = KernelState(
            network=network,
            router=router,
            traffic=traffic,
            accountant=accountant,
            result=result,
            config=config,
            net_config=net_config,
            scheduler=self.scheduler,
        )
        for fabric in network.fabrics:
            fabric.bind_pool(self.state.pool)
        self.phases = [
            ArrivalPhase(self.state),
            GenerationPhase(self.state),
            InjectionPhase(self.state),
            FabricPhase(self.state),
            AllocationPhase(self.state),
        ]
        if fault_injector is not None:
            self.state.faults_active = True
            self.phases.insert(0, FaultPhase(self.state, fault_injector))

    def run(self) -> KernelState:
        """Execute cycles ``0 .. cycles-1`` and return the state."""
        state = self.state
        config = state.config
        phases = self.phases
        profile = config.profile_phases
        phase_seconds = state.result.phase_seconds
        if profile:
            for phase in phases:
                phase_seconds.setdefault(phase.name, 0.0)
        phase_runs = [phase.run for phase in phases]
        phase_token = state.traffic.phase_token()
        for cycle in range(config.cycles):
            state.cycle = cycle
            if cycle == config.warmup_cycles:
                state.anchor_watchdog(cycle)
            if profile:
                for phase in phases:
                    started = perf_counter()
                    phase.run(cycle)
                    phase_seconds[phase.name] += perf_counter() - started
            else:
                for run in phase_runs:
                    run(cycle)
            token = state.traffic.phase_token()
            if token != phase_token:
                phase_token = token
                # A phase change only re-anchors the watchdog when some
                # flit made progress since the previous anchor: a workload
                # whose phases are shorter than ``watchdog_cycles`` must
                # not be able to mask a genuine deadlock by re-anchoring
                # forever while nothing moves.
                if state.last_progress_cycle > state.anchored_progress:
                    state.anchor_watchdog(cycle)
                    state.anchored_progress = state.last_progress_cycle
            state.check_watchdog(cycle)
        return state
