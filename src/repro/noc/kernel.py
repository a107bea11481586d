"""The phase-structured simulation kernel.

Mirrors the simulator described in Section IV of the paper: it
"characterizes the multichip architecture and models the progress of the
flits over the switches and links per cycle accounting for those flits that
reach the destination as well as those that are stalled".

Each simulated cycle runs five phases, in order:

1. ``arrival`` (:meth:`KernelState.process_arrivals`) — flits whose fabric
   traversal completes this cycle are appended to their reserved
   downstream VC buffers.
2. ``generation`` (:meth:`KernelState.generate_traffic`) — the traffic
   model emits new packets into the per-endpoint source queues; routes are
   assigned from the pre-computed shortest paths.
3. ``injection`` (:meth:`Scheduler.run_injection`) — source queues feed
   flits into free local-port VCs (one flit per cycle per switch, more for
   multi-endpoint memory dies).
4. ``fabric`` (:meth:`Fabric.update <repro.noc.fabric.Fabric.update>`) —
   every fabric with time-dependent state advances (the wireless fabric's
   channel arbitration and transceiver power states).
5. ``allocation`` (:meth:`Scheduler.run_allocation`) — switches arbitrate
   their output ports among the VCs requesting them (round-robin, stopping
   at each output's winner), move the winning flits onto their fabric or
   the ejection port, perform credit-equivalent space reservation
   downstream, and charge energy.

Runs carrying a non-empty fault plan run a ``faults`` phase first
(:meth:`FaultInjector.advance <repro.faults.injector.FaultInjector.advance>`),
which applies due fault events and triggers routing recovery before
anything else moves in the cycle; fault-free runs execute exactly the five
phases above.  :class:`SimulationKernel` binds each phase's method once,
when it is built, into its list of ``(name, step)`` pairs, and each cycle
calls the steps in order; the names key the per-phase wall clock of
profiled runs.

The data plane is array-backed (see :mod:`repro.noc.pool`): packets live in
a :class:`~repro.noc.pool.PacketPool` of parallel arrays addressed by
integer handles, flits are packed ``(handle, index)`` integers, and
per-packet routes are compiled once into dense per-hop output-port tables.
A VC holds a run of consecutive flits of one packet, so its buffer is its
packed front flit and a count (see :mod:`repro.noc.virtual_channel`): a
push bumps the count, a pop advances ``front`` by one, and an arrival event
is just the target VC.  The hot phase bodies below inline the run and pool
arithmetic — no flit or packet object is created, hashed, or
attribute-chased anywhere on the per-flit path.  Only traffic delivery
callbacks see an object: a :class:`~repro.noc.pool.PacketView` of the
delivered packet.

The injection and allocation phase loops are run by a :class:`Scheduler`
(``run_injection`` / ``run_allocation``), which calls the per-switch
:meth:`KernelState.inject` body and, once per cycle, the
:meth:`KernelState.allocate` pass over a list of switch ids.  The
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
from functools import partial
from time import perf_counter
from typing import Deque, Dict, List, Optional

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

#: The names of the kernel's per-cycle steps, in order; fault-free runs
#: have no ``faults`` step.
PHASES = ("faults", "arrival", "generation", "injection", "fabric", "allocation")


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
        buffer operations) nor the front flit a visit arbitrates for, and a
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
        self._switch_ids = [switch.switch_id for switch in switches]
        self._injecting = injecting

    def run_injection(self, state: "KernelState", cycle: int) -> None:
        inject = state.inject
        for switch in self._injecting:
            inject(switch, cycle)

    def run_allocation(self, state: "KernelState", cycle: int) -> None:
        state.allocate(self._switch_ids, cycle)


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
        # The pass reads the list by index, so switches that on_space_freed
        # inserts past the current one are visited this pass.
        self._pass = sorted(active)
        state.allocate(self._pass, cycle, active, self._sleep)
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
    packet handles, arrival events hold target VCs, and the phase bodies
    below manipulate the VC runs and pool arrays directly.
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
        #: Cycle -> target VC of each flit whose traversal completes then.
        #: The flit is the VC's next one, so the VC is all an arrival needs.
        self.arrivals: Dict[int, List[VirtualChannel]] = {}
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
        for vc in due:
            # The send reserved this slot.  The flit is the next one of the
            # VC's run, so buffering it only extends the run.
            if vc.in_flight <= 0:
                raise KernelInvariantError("flit arrived at a VC without a matching reservation")
            vc.in_flight -= 1
            count = vc.count
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
            vc.front = handle << FLIT_INDEX_BITS
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

    def allocate(
        self, order: List[int], cycle: int, active: Optional[set] = None, sleep=None
    ) -> int:
        """One allocation pass: arbitrate and move flits at each switch of ``order``.

        ``order`` lists switch ids in ascending order; the pass reads it by
        index, so ids inserted past the current one while it runs are
        visited too.  Each visit is one inlined pass over the switch's
        occupied VCs: request collection (per-output scratch lists, in
        ascending ordinal order), then per output its round-robin
        arbitration and the send itself (pop of the VC run, downstream
        reservation, arrival scheduling, energy attribution), all on packed
        flit integers and pool arrays.  An output examines its requesters
        in round-robin order, from the first ordinal at or past its
        ``rr_pointer`` round to the one before it, checks each for
        downstream space (a free VC for a head, room in its head's VC for a
        body flit) and fabric admission, and sends the first that passes:
        the eligible VC of minimum rank ``(ordinal - rr_pointer) %
        rr_modulus``.  The requesters after it are not examined.  An output
        whose fabric may refuse sends asks :meth:`Fabric.may_transmit
        <repro.noc.fabric.Fabric.may_transmit>` first and examines none of
        them when the switch may not transmit.  Outputs are served in
        first-request order and every float is accumulated in the same
        sequence under every scheduler, so results are bit-identical.  A
        switch with one occupied VC, most visits at the figures' loads,
        takes a branch that makes the same checks and the same send
        without the scratch lists.

        A visit is *blocked* when nothing moved and every request waits on
        a busy output or on buffer space downstream, so another visit finds
        the same until one of those changes.  A request that reached a
        fabric grant check, an output whose switch may not transmit, and an
        ejection request never count as blocked.  With ``active`` (the
        :class:`ActiveSetScheduler`'s wake set), a blocked switch leaves it
        and ``sleep(switch, cycle)`` registers its wake-up conditions, and a
        drained switch leaves it, each at the end of its own visit: a later
        switch of the same pass may pop a flit the sleeper waits on.
        Returns how many visits were blocked.
        """
        switches = self.network.switches
        assign = self._assign_output
        pool_pid = self._pid
        pool_length = self._length_flits
        pool_head_hop = self._head_hop
        pool_energy = self._energy
        breakdown = self.breakdown
        arrivals = self.arrivals
        switch_energy = self.switch_energy_pj
        result = self.result
        space_waiters = self._space_waiters
        on_space_freed = self.scheduler.on_space_freed
        blocked_visits = 0
        req_outputs = None
        try:
            for switch_id in order:
                switch = switches[switch_id]
                occupied = switch.occupied
                if not occupied:
                    if active is not None:
                        active.discard(switch_id)
                    continue
                vc_by_ordinal = switch.vc_by_ordinal
                if len(occupied) == 1:
                    (ordinal,) = occupied
                    winner = vc_by_ordinal[ordinal]
                    output = winner.current_output
                    if output is None:
                        output = assign(switch, winner)
                    # The same checks as the general path below, for its one
                    # requester.
                    blocked = False
                    target = None
                    if output.is_ejection:
                        output.rr_pointer = (ordinal + 1) % switch.rr_modulus
                        self._eject(switch, winner, cycle)
                    elif output.busy_until > cycle:
                        blocked = True
                    elif winner.downstream_port is not None:
                        flit = winner.front
                        if flit & FLIT_INDEX_MASK:
                            target = winner.send_target
                            if (
                                target is not None
                                and target.count + target.in_flight >= target.capacity
                            ):
                                target = None
                                blocked = True
                        else:
                            for target in winner.downstream_port.vcs:
                                if (
                                    target.allocated_packet_id is None
                                    and target.count == 0
                                    and target.in_flight == 0
                                ):
                                    winner.send_target = target
                                    break
                            else:
                                target = None
                                blocked = True
                        fabric = output.fabric
                        if (
                            target is not None
                            and not fabric.always_grants
                            and not fabric.grants(
                                switch_id,
                                pool_pid[flit >> FLIT_INDEX_BITS],
                                winner.downstream_switch,
                                not flit & FLIT_INDEX_MASK,
                            )
                        ):
                            target = None
                    if target is not None:
                        output.rr_pointer = (ordinal + 1) % switch.rr_modulus
                        # Send the front flit, as the general path does.
                        downstream_switch = winner.downstream_switch
                        winner.front = flit + 1
                        count = winner.count - 1
                        winner.count = count
                        if not count:
                            occupied.discard(ordinal)
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
                            and (is_tail or count + winner.in_flight + 1 >= winner.capacity)
                            and winner.port in space_waiters
                        ):
                            on_space_freed(winner.port, switch_id)
                        pid = pool_pid[handle]
                        owner = target.allocated_packet_id
                        if is_head:
                            if owner is not None and owner != pid:
                                raise KernelInvariantError(
                                    f"VC already allocated to packet {owner}, cannot "
                                    f"accept head of packet {pid}"
                                )
                            target.allocated_packet_id = pid
                            # The head starts the run the target VC will hold.
                            target.front = flit
                        elif owner != pid:
                            raise KernelInvariantError(
                                f"body flit of packet {pid} sent to VC owned by {owner}"
                            )
                        target.in_flight += 1
                        link = output.link
                        arrival_cycle = cycle + link.latency_cycles
                        entry = arrivals.get(arrival_cycle)
                        if entry is None:
                            arrivals[arrival_cycle] = [target]
                        else:
                            entry.append(target)
                        output.busy_until = cycle + link.cycles_per_flit
                        breakdown.switch_dynamic_pj += switch_energy
                        link_energy = link.energy_pj_per_flit
                        if fabric.is_wireless:
                            breakdown.wireless_pj += link_energy
                        else:
                            breakdown.link_pj += link_energy
                        # Two rounded additions, in the order the packet crossed them.
                        pool_energy[handle] = pool_energy[handle] + switch_energy + link_energy
                        result.flit_hops += 1
                        if fabric.tracks_sends:
                            fabric.notify_sent(switch_id, pid, downstream_switch, is_tail, cycle)
                        if is_head:
                            pool_head_hop[handle] += 1
                        self.last_progress_cycle = cycle
                else:
                    for ordinal in sorted(occupied):
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
                    rr_modulus = switch.rr_modulus
                    blocked = True
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
                        if check_grant and not fabric.may_transmit(switch_id):
                            # The fabric grants this switch nothing this
                            # cycle, and its own state decides when it will.
                            blocked = False
                            continue
                        # Round-robin: the requesters are in ascending
                        # ordinal order, so the scan starts at the first one
                        # at or past the pointer, wraps around, and the first
                        # eligible VC has the minimum rank.
                        pointer = output.rr_pointer
                        start = 0
                        for vc in vcs:
                            if vc.ordinal >= pointer:
                                break
                            start += 1
                        if start:
                            vcs = vcs[start:] + vcs[:start]
                        for vc in vcs:
                            downstream = vc.downstream_port
                            if downstream is None:
                                blocked = False
                                continue
                            flit = vc.front
                            if flit & FLIT_INDEX_MASK:
                                # A body flit follows its head into the VC the
                                # head was sent to.
                                target = vc.send_target
                                if target is None:
                                    blocked = False
                                    continue
                                if target.count + target.in_flight >= target.capacity:
                                    continue
                            else:
                                # A head flit needs a free VC: its packet owns
                                # none at the next switch, since routes never
                                # revisit one.
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
                            if check_grant and not fabric.grants(
                                switch_id,
                                pool_pid[flit >> FLIT_INDEX_BITS],
                                vc.downstream_switch,
                                not flit & FLIT_INDEX_MASK,
                            ):
                                # A grant can change with the fabric's own state.
                                blocked = False
                                continue
                            break
                        else:
                            continue
                        winner = vc
                        blocked = False
                        output.rr_pointer = (winner.ordinal + 1) % rr_modulus
                        # Send the winner's front flit (``flit``, bound for
                        # ``target``): pop it off the run and reserve its slot
                        # downstream.
                        downstream_switch = winner.downstream_switch
                        winner.front = flit + 1
                        count = winner.count - 1
                        winner.count = count
                        if not count:
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
                            and (is_tail or count + winner.in_flight + 1 >= winner.capacity)
                            and winner.port in space_waiters
                        ):
                            on_space_freed(winner.port, switch_id)
                        pid = pool_pid[handle]
                        owner = target.allocated_packet_id
                        if is_head:
                            if owner is not None and owner != pid:
                                raise KernelInvariantError(
                                    f"VC already allocated to packet {owner}, cannot "
                                    f"accept head of packet {pid}"
                                )
                            target.allocated_packet_id = pid
                            # The head starts the run the target VC will hold.
                            target.front = flit
                        elif owner != pid:
                            raise KernelInvariantError(
                                f"body flit of packet {pid} sent to VC owned by {owner}"
                            )
                        target.in_flight += 1
                        link = output.link
                        arrival_cycle = cycle + link.latency_cycles
                        entry = arrivals.get(arrival_cycle)
                        if entry is None:
                            arrivals[arrival_cycle] = [target]
                        else:
                            entry.append(target)
                        output.busy_until = cycle + link.cycles_per_flit
                        breakdown.switch_dynamic_pj += switch_energy
                        link_energy = link.energy_pj_per_flit
                        if fabric.is_wireless:
                            breakdown.wireless_pj += link_energy
                        else:
                            breakdown.link_pj += link_energy
                        # Two rounded additions, in the order the packet crossed them.
                        pool_energy[handle] = pool_energy[handle] + switch_energy + link_energy
                        result.flit_hops += 1
                        if fabric.tracks_sends:
                            fabric.notify_sent(switch_id, pid, downstream_switch, is_tail, cycle)
                        if is_head:
                            pool_head_hop[handle] += 1
                        self.last_progress_cycle = cycle
                    for output in req_outputs:
                        output.request_scratch.clear()
                    req_outputs = None
                if blocked:
                    blocked_visits += 1
                    if active is not None:
                        active.discard(switch_id)
                        sleep(switch, cycle)
                elif active is not None and not occupied:
                    # The switch's occupied-VC set is authoritative: empty
                    # means the dense pass would find nothing here either.
                    active.discard(switch_id)
        finally:
            if req_outputs is not None:
                for output in req_outputs:
                    output.request_scratch.clear()
        return blocked_visits

    def _assign_output(self, switch: Switch, vc: VirtualChannel):
        """Route the head flit at the front of ``vc`` (first visit only)."""
        pool = self.pool
        flit = vc.front
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
        """Eject from up to ``output.width`` requesters in round-robin order.

        Each VC ejects at most one flit per cycle, and the pointer moves
        past each winner, so the winners are the first ``width`` requesters
        of the scan that starts at the pointer and wraps around.  Every
        requester holds a flit: it is occupied, and no other output of the
        visit pops it.
        """
        rr_modulus = switch.rr_modulus
        if len(vcs) == 1:
            # One requester (always buffered): it wins the round-robin.
            winner = vcs[0]
            output.rr_pointer = (winner.ordinal + 1) % rr_modulus
            self._eject(switch, winner, cycle)
            return
        pointer = output.rr_pointer
        start = 0
        for vc in vcs:
            if vc.ordinal >= pointer:
                break
            start += 1
        for winner in (vcs[start:] + vcs[:start])[: output.width]:
            output.rr_pointer = (winner.ordinal + 1) % rr_modulus
            self._eject(switch, winner, cycle)

    def _eject(self, switch: Switch, vc: VirtualChannel, cycle: int) -> None:
        pool = self.pool
        flit = vc.front
        vc.front = flit + 1
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
# The kernel.
# ----------------------------------------------------------------------


class SimulationKernel:
    """Drives the per-cycle steps over one network instance."""

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
        self.state = state = KernelState(
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
            fabric.bind_pool(state.pool)
        #: The cycle's ``(name, step)`` pairs, run in order as ``step(cycle)``.
        #: ``name`` keys :attr:`SimulationResult.phase_seconds` on profiled
        #: runs; each fabric with time-dependent state is its own step.
        self.steps = [
            ("arrival", state.process_arrivals),
            ("generation", state.generate_traffic),
            ("injection", partial(self.scheduler.run_injection, state)),
            *[("fabric", fabric.update) for fabric in network.fabrics if fabric.needs_update],
            ("allocation", partial(self.scheduler.run_allocation, state)),
        ]
        if fault_injector is not None:
            state.faults_active = True
            # Faults come first: a component that dies at cycle c is gone
            # before any flit moves in cycle c.
            self.steps.insert(0, ("faults", partial(fault_injector.advance, state=state)))

    def run(self) -> KernelState:
        """Execute cycles ``0 .. cycles-1`` and return the state."""
        state = self.state
        config = state.config
        steps = self.steps
        profile = config.profile_phases
        phase_seconds = state.result.phase_seconds
        if profile:
            # Every phase is reported, a fabric phase with no fabric to
            # advance included.
            for name in PHASES if state.faults_active else PHASES[1:]:
                phase_seconds.setdefault(name, 0.0)
        calls = [step for _, step in steps]
        phase_token = state.traffic.phase_token()
        for cycle in range(config.cycles):
            state.cycle = cycle
            if cycle == config.warmup_cycles:
                state.anchor_watchdog(cycle)
            if profile:
                for name, step in steps:
                    started = perf_counter()
                    step(cycle)
                    phase_seconds[name] += perf_counter() - started
            else:
                for step in calls:
                    step(cycle)
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
