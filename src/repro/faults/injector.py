"""Runtime fault injection and recovery over one simulation run.

The :class:`FaultInjector` executes a :class:`~repro.faults.plan.FaultPlan`
against a live network: at the start of each cycle with due events it
applies them (taking links out of service, killing transceivers, degrading
ports or the wireless channel), then runs one *recovery pass* that rebuilds
routing around the damage:

* the topology graph's in-service view and the router caches are updated,
  so every packet generated from now on automatically routes around faults
  (with per-link penalties biasing paths away from degraded components);
* queued and in-flight packets whose remaining route crosses a failed
  component are *rerouted* — their source route is spliced at the head
  flit's current switch with a fresh shortest path (the wireless→wired /
  other-WI fallback falls out of this: the recomputed path simply uses
  whatever in-service links remain);
* packets whose destination became unreachable are *purged with explicit
  accounting*: every removed flit and packet increments a result counter,
  and the partition itself is reported — never a silent drop;
* switches touched by recovery are woken in the kernel's active-set
  scheduler and the progress watchdog is re-anchored, so topology changes
  cannot strand work or trip spurious stall errors.

Failures are **packet-atomic** (drain semantics): a packet whose head
already committed to a hop finishes crossing it — wormhole switching
cannot truncate a packet mid-flight without dropping flits — so the
delivered-flit conservation invariant
``flits_injected == flits_ejected_total + flits_residual_end +
flits_dropped_unroutable`` holds on every run, faulted or not
(``tests/test_faults.py`` asserts it).

Injector state that outlives the run (disabled graph links, router
penalties) is undone by :meth:`FaultInjector.restore`, which the simulator
calls in a ``finally`` block: the topology and router are shared across
runs, and a faulted run must leave no trace on the next one.  The network
is shared too, and its reset undoes the rest (degraded port links, failed
hops, dead transceivers).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Set, Tuple, TYPE_CHECKING

from ..noc.pool import FLIT_INDEX_BITS, FLIT_INDEX_MASK
from ..routing.base import BaseRouter, RoutingError
from ..topology.graph import LinkKind, TopologyGraph
from .plan import FaultEvent, FaultKind, FaultPlan
from .recovery import AUDIT_SWITCH_LIMIT, RecoveryReport, recover_routing

if TYPE_CHECKING:  # pragma: no cover
    from ..noc.kernel import KernelState
    from ..noc.network import Network
    from ..noc.stats import SimulationResult

__all__ = ["AUDIT_SWITCH_LIMIT", "FaultInjectionError", "FaultInjector"]


class FaultInjectionError(RuntimeError):
    """Raised when a fault event cannot be applied to the network."""


class FaultInjector:
    """Applies one fault plan to one live simulation run."""

    def __init__(
        self,
        plan: FaultPlan,
        network: "Network",
        router: BaseRouter,
        result: "SimulationResult",
    ) -> None:
        self.plan = plan
        self.network = network
        #: The system's own router — receives penalties, is restored at the
        #: end of the run, and is the starting point of every recovery.
        self.base_router = router
        #: The route provider currently in effect (the base router, or a
        #: spanning-tree fallback installed by a recovery pass).
        self.router: BaseRouter = router
        self.result = result
        self.graph: TopologyGraph = network.topology
        self._schedule: Dict[int, List[FaultEvent]] = plan.schedule()
        self._disabled_by_us: Set[int] = set()
        self._penalised_by_us: Set[int] = set()
        #: The last recovery's cycle witness, audited first by the next one.
        #: It lives and dies with this run: a witness from another run
        #: would only make one task's cost depend on what ran before it.
        self._witness: Tuple[Tuple[int, int], ...] = ()
        result.fault_scenario = plan.scenario
        result.fault_rate = plan.fault_rate

    # ------------------------------------------------------------------
    # Kernel-facing entry points.
    # ------------------------------------------------------------------

    def advance(self, cycle: int, state: "KernelState") -> None:
        """Apply the events due this cycle and recover routing around them."""
        events = self._schedule.pop(cycle, None)
        if not events:
            return
        topology_changed = False
        for event in events:
            topology_changed |= self._apply(event)
        self.result.fault_events_applied += len(events)
        if topology_changed:
            self._recover(state)
        else:
            # Degradations change costs, not connectivity: new packets see
            # the penalties (caches were cleared), in-flight ones keep
            # their still-valid routes.
            self.router.clear_cache()
        state.anchor_watchdog(cycle)

    def restore(self) -> None:
        """Undo every change to state shared across runs (graph, router).

        Degraded port links, dead transceivers and the MAC state belong to
        the network, which :meth:`~repro.noc.network.Network.reset` returns
        to its as-built state before it serves another run.
        """
        for link_id in sorted(self._disabled_by_us):
            self.graph.enable_link(link_id)
        self._disabled_by_us.clear()
        for link_id in sorted(self._penalised_by_us):
            self.base_router.set_link_penalty(link_id, 1.0)
        self._penalised_by_us.clear()
        self.base_router.clear_cache()
        self.network.wired_fabric.clear_failures()
        if self.network.wireless_fabric is not None:
            self.network.wireless_fabric.dead_wis.clear()

    # ------------------------------------------------------------------
    # Event application.
    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> bool:
        """Apply one event; returns whether connectivity changed."""
        if event.kind is FaultKind.LINK_DOWN:
            self._apply_link_down(event)
            return True
        if event.kind is FaultKind.TRANSCEIVER_DOWN:
            self._apply_transceiver_down(event)
            return True
        if event.kind is FaultKind.LINK_DEGRADE:
            self._apply_link_degrade(event)
            return False
        if event.kind is FaultKind.CHANNEL_DEGRADE:
            self._apply_channel_degrade(event)
            return False
        raise FaultInjectionError(f"unknown fault kind {event.kind!r}")

    def _apply_link_down(self, event: FaultEvent) -> None:
        link = self.graph.link(event.link_id)
        if self.graph.link_enabled(link.link_id):
            self.graph.disable_link(link.link_id)
            self._disabled_by_us.add(link.link_id)
        if link.kind != LinkKind.WIRELESS:
            self.network.wired_fabric.fail_link(link.src, link.dst)
        self.result.links_failed += 1

    def _apply_transceiver_down(self, event: FaultEvent) -> None:
        fabric = self.network.wireless_fabric
        if fabric is None:
            raise FaultInjectionError(
                "transceiver_down fault on a network without a wireless fabric"
            )
        fabric.fail_transceiver(event.switch_id)
        for link in self.graph.links:
            if link.kind != LinkKind.WIRELESS:
                continue
            if event.switch_id not in link.endpoints():
                continue
            if self.graph.link_enabled(link.link_id):
                self.graph.disable_link(link.link_id)
                self._disabled_by_us.add(link.link_id)
        self.result.transceivers_failed += 1

    def _apply_link_degrade(self, event: FaultEvent) -> None:
        link = self.graph.link(event.link_id)
        degraded = False
        for src, dst in ((link.src, link.dst), (link.dst, link.src)):
            switch = self.network.switches.get(src)
            port = switch.output_ports.get(dst) if switch is not None else None
            if port is None or port.link is None:
                continue
            port.link = replace(
                port.link,
                cycles_per_flit=port.link.cycles_per_flit * event.bandwidth_factor,
                latency_cycles=port.link.latency_cycles + event.extra_latency_cycles,
            )
            degraded = True
        if not degraded:
            raise FaultInjectionError(
                f"link_degrade fault on link {link.link_id} with no wired ports"
            )
        if event.routing_penalty > 1.0:
            self.base_router.set_link_penalty(link.link_id, event.routing_penalty)
            self._penalised_by_us.add(link.link_id)
        self.result.links_degraded += 1

    def _apply_channel_degrade(self, event: FaultEvent) -> None:
        fabric = self.network.wireless_fabric
        if fabric is None:
            raise FaultInjectionError(
                "channel_degrade fault on a network without a wireless fabric"
            )
        for wi_id in fabric.wi_switch_ids:
            port = self.network.switches[wi_id].wireless_output
            if port is None or port.link is None:
                continue
            port.link = replace(
                port.link,
                cycles_per_flit=port.link.cycles_per_flit * event.bandwidth_factor,
                latency_cycles=port.link.latency_cycles + event.extra_latency_cycles,
            )
        if event.routing_penalty > 1.0:
            for link in self.graph.links:
                if link.kind == LinkKind.WIRELESS and self.graph.link_enabled(link.link_id):
                    self.base_router.set_link_penalty(link.link_id, event.routing_penalty)
                    self._penalised_by_us.add(link.link_id)
        self.result.links_degraded += 1

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def _recover(self, state: "KernelState") -> None:
        provider, report = recover_routing(self.graph, self.base_router, self._witness)
        self._witness = report.witness
        if report.partitioned:
            self.result.partitions_reported += 1
        if report.used_tree_fallback:
            self.result.tree_fallback_recoveries += 1
        # When the active route provider changes (fallback installed, or a
        # later pass returns to shortest paths), every in-flight packet must
        # move to the new provider's routes — mixing providers would void
        # the deadlock-freedom argument of the recovery set.
        provider_changed = provider is not self.router
        self.router = provider
        state.router = provider
        self._reroute_queued(state, report, force=provider_changed)
        self._reroute_in_flight(state, report, force=provider_changed)

    def _route_broken(self, route, from_hop: int) -> bool:
        for a, b in zip(route[from_hop:], route[from_hop + 1 :]):
            if self.graph.find_link(a, b) is None:
                return True
        return False

    def _reroute_queued(
        self, state: "KernelState", report: RecoveryReport, force: bool = False
    ) -> None:
        """Recompute routes of packets still waiting in their source queues.

        Source queues hold packet-pool handles; a dropped packet's handle is
        returned to the pool so the conservation contract
        (``allocated == freed + live``) survives faulted runs.
        """
        pool = state.pool
        for endpoint_id in sorted(state.source_queues):
            queue = state.source_queues[endpoint_id]
            if not queue:
                continue
            kept = []
            for handle in queue:
                route = pool.route[handle]
                broken = self._route_broken(route, 0)
                if not force and not broken:
                    kept.append(handle)
                    continue
                src_switch = pool.src_switch[handle]
                dst_switch = pool.dst_switch[handle]
                new_route = None
                if not report.partitioned or report.same_component(src_switch, dst_switch):
                    try:
                        new_route = self.router.route(src_switch, dst_switch)
                    except RoutingError:
                        new_route = None
                if new_route is None:
                    if broken:
                        self.result.packets_dropped_unroutable += 1
                        pool.free(handle)
                    else:
                        kept.append(handle)  # old route is still usable
                    continue
                if list(new_route) != list(route):
                    pool.route[handle] = list(new_route)
                    state.compile_route_ports(handle)
                    self.result.packets_rerouted += 1
                kept.append(handle)
            if len(kept) != len(queue):
                queue.clear()
                queue.extend(kept)

    def _reroute_in_flight(
        self, state: "KernelState", report: RecoveryReport, force: bool = False
    ) -> None:
        """Splice fresh paths into packets already travelling the network."""
        pool = state.pool
        pool_pid = pool.pid
        packets: Dict[int, int] = {}  # packet id -> pool handle
        head_vcs: Dict[int, Tuple[object, object]] = {}
        for switch_id in sorted(self.network.switches):
            switch = self.network.switches[switch_id]
            for port in switch.input_port_list or switch.input_ports.values():
                for vc in port.vcs:
                    if not vc.count:
                        continue
                    front = vc.buf[vc.head]
                    handle = front >> FLIT_INDEX_BITS
                    packets[pool_pid[handle]] = handle
                    if not front & FLIT_INDEX_MASK:  # head flit in front
                        head_vcs[pool_pid[handle]] = (vc, switch)
        for entries in state.arrivals.values():
            for _, flit in entries:
                handle = flit >> FLIT_INDEX_BITS
                packets[pool_pid[handle]] = handle

        for packet_id in sorted(packets):
            handle = packets[packet_id]
            route = pool.route[handle]
            head_hop = pool.head_hop[handle]
            if head_hop >= len(route) - 1:
                continue  # head already at (or ejecting into) its destination
            broken = self._route_broken(route, head_hop)
            if not force and not broken:
                continue
            current = route[head_hop]
            dst_switch = pool.dst_switch[handle]
            prefix = list(route[:head_hop])
            new_tail = None
            if not report.partitioned or report.same_component(current, dst_switch):
                try:
                    new_tail = self.router.route(current, dst_switch)
                except RoutingError:
                    new_tail = None
            # A recovery path that re-enters an already-traversed switch
            # could collide with the packet's own upstream VC allocations,
            # so such splices are rejected.
            if new_tail is not None and set(new_tail[1:]) & set(prefix):
                new_tail = None
            if new_tail is None:
                if broken or force:
                    # No safe path remains — or the route provider changed
                    # and this packet cannot move to it, and a stale route
                    # from the previous provider would void the recovery
                    # set's deadlock-freedom argument.  Remove the packet
                    # *with accounting* — counted, never silent.
                    self._purge_packet(handle, state)
                continue
            new_route = prefix + list(new_tail)
            if new_route == list(route):
                continue
            pool.route[handle] = new_route
            state.compile_route_ports(handle)
            self.result.packets_rerouted += 1
            holder = head_vcs.get(packet_id)
            if holder is not None:
                vc, switch = holder
                vc.reset_routing()
                state.scheduler.on_fault(switch)

    def _purge_packet(self, handle: int, state: "KernelState") -> None:
        """Remove a stranded packet from the network, counting every flit."""
        pool = state.pool
        packet_id = pool.pid[handle]
        removed = 0
        for cycle_key in sorted(state.arrivals):
            entries = state.arrivals[cycle_key]
            kept = []
            for target_vc, flit in entries:
                if flit >> FLIT_INDEX_BITS == handle:
                    target_vc.in_flight -= 1
                    removed += 1
                else:
                    kept.append((target_vc, flit))
            if len(kept) != len(entries):
                if kept:
                    state.arrivals[cycle_key] = kept
                else:
                    del state.arrivals[cycle_key]
        for switch_id in sorted(self.network.switches):
            switch = self.network.switches[switch_id]
            for port in switch.input_port_list or switch.input_ports.values():
                for vc in port.vcs:
                    if vc.source_packet == handle:
                        vc.source_packet = None
                        vc.source_flits_emitted = 0
                    if vc.allocated_packet_id != packet_id:
                        continue
                    removed += vc.clear_buffer()
                    vc.in_flight = 0
                    vc.release()
                    state.scheduler.on_fault(switch)
        for queue in state.source_queues.values():
            if handle in queue:
                queue.remove(handle)
        self.result.packets_dropped_unroutable += 1
        self.result.flits_dropped_unroutable += removed
        pool.free(handle)
