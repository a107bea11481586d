"""The unified fabric interface: wired links and the wireless channel.

A :class:`Fabric` is the transmission medium behind a set of output ports.
The simulation kernel talks to every medium through the same questions —
*where does this hop land?* (:meth:`Fabric.resolve_downstream`), *may this
switch send at all now?* (:meth:`Fabric.may_transmit`), *may this
flit go now?* (:meth:`Fabric.grants`), *a flit just went*
(:meth:`Fabric.notify_sent`), *advance your per-cycle state*
(:meth:`Fabric.update`) and *settle your end-of-run accounting*
(:meth:`Fabric.finalize`) — so the kernel never special-cases the wireless
channel inline and the MAC protocols never reach into the kernel.

The hot-path methods (:meth:`grants`, :meth:`notify_sent`) are
handle-based: they take the globally unique packet id and the head/tail
booleans the kernel already derived from the packet pool, so no flit or
packet object exists on the send path.  Two class flags let the kernel
skip the calls entirely where they would be no-ops: ``always_grants`` (no
admission control right now — true for an unfailed wired fabric) and
``tracks_sends`` (the medium needs the sent notification — only the
wireless fabric does).

Two implementations exist:

* :class:`WiredFabric` — point-to-point links with a fixed downstream port;
  every send is allowed unless fault injection failed the hop, nothing
  needs per-cycle updates.
* :class:`WirelessFabric` — the shared-medium state of the deployed
  wireless interfaces: channel assignment, one MAC instance per channel
  (built by name from the MAC registry), and the transceiver power states.
  The destination (and therefore the downstream input port) differs per
  packet, and sends are gated by the owning MAC.

The wireless fabric doubles as the MAC protocols'
:class:`~repro.wireless.mac.MacDataPlane`: :meth:`WirelessFabric.scan_pending`
fills preallocated scratch arrays straight from the packet pool's parallel
arrays and the per-WI occupied-VC ordinal sets — no dataclass, tuple or
list is created per cycle — and :meth:`WirelessFabric.holds_flits` tells a
MAC when a whole channel is empty, so it can skip the scans.

The wireless fabric's per-cycle cost follows what changes.  A transceiver's
residency is a sequence of asleep/awake runs
(:class:`~repro.wireless.transceiver.Transceiver`), and the fabric decides
who sleeps again only on a power-gated channel, and only when a WI died or
the MAC's ``receiver_changes`` counter moved (it bumps it when a burst is
announced or released and when a destination's last announced flit
leaves).  Without sleepy receivers (token, TDMA, FDMA, or the option off)
every transceiver stays in one awake run; :meth:`WirelessFabric.finalize`
settles the open runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from ..energy import EnergyAccountant
from ..wireless.mac import MacBuildContext, MacDataPlane, MacProtocol, mac_spec
from ..wireless.transceiver import Transceiver
from .pool import FLIT_INDEX_BITS, FLIT_INDEX_MASK, PacketPool
from .port import InputPort, OutputPort
from .virtual_channel import KernelInvariantError

if TYPE_CHECKING:  # pragma: no cover
    from .config import NetworkConfig
    from .stats import SimulationResult
    from .switch import Switch


class FabricError(ValueError):
    """Raised when a fabric is built or addressed inconsistently."""


class Fabric:
    """One transmission medium shared by a set of output ports."""

    #: Whether traversals over this fabric are wireless (drives energy
    #: attribution and the per-figure wireless-hop counters).
    is_wireless: bool = False

    #: Whether the kernel must call :meth:`update` every cycle.  Media with
    #: no time-dependent state (wired links) opt out so the kernel's fabric
    #: phase stays free for them.
    needs_update: bool = False

    #: Whether :meth:`grants` can currently refuse a send.  While ``False``
    #: the kernel skips the call entirely (the pristine wired fast path);
    #: fabrics flip it when admission control becomes live (a failed link,
    #: or always for the MAC-arbitrated wireless medium).
    always_grants: bool = True

    #: Whether the kernel must call :meth:`notify_sent` for every flit that
    #: goes onto this medium.
    tracks_sends: bool = False

    def bind_accountant(self, accountant: EnergyAccountant) -> None:
        """Attach the energy accountant of the current simulation run."""

    def bind_pool(self, pool: PacketPool) -> None:
        """Attach the packet pool of the current simulation run."""

    def resolve_downstream(self, output: OutputPort, dst_switch_id: int) -> InputPort:
        """The input port a hop over ``output`` towards ``dst_switch_id`` lands on."""
        raise NotImplementedError

    def may_transmit(self, src_switch_id: int) -> bool:
        """Whether :meth:`grants` may grant any flit from this switch now.

        A necessary condition of every grant, cheap enough to ask once per
        output before its requesters are examined: ``False`` means every
        :meth:`grants` call from ``src_switch_id`` this cycle refuses.
        """
        return True

    def grants(
        self, src_switch_id: int, packet_id: int, dst_switch_id: int, is_head: bool
    ) -> bool:
        """Whether the medium grants this flit transmission right now."""
        return True

    def notify_sent(
        self,
        src_switch_id: int,
        packet_id: int,
        dst_switch_id: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        """Notification that a flit went onto the medium this cycle."""

    def update(self, cycle: int) -> None:
        """Advance per-cycle medium state (MAC arbitration, power states)."""

    def finalize(self, result: "SimulationResult", accountant: EnergyAccountant) -> None:
        """Settle end-of-run statistics and static energy into the result."""


class WiredFabric(Fabric):
    """Point-to-point wired links: fixed downstream, always grantable.

    Fault injection can take individual links out of service: a failed link
    blocks *head* flits (so no new packet enters it and routing recovery can
    redirect them) while body flits of packets already committed to the hop
    drain through — wormhole switching cannot truncate a packet mid-flight
    without dropping flits, so failures are packet-atomic and every injected
    flit still reaches an ejection port.
    """

    def __init__(self) -> None:
        #: Directed (src switch, dst switch) hops currently failed.
        self.failed_pairs: Set[Tuple[int, int]] = set()
        #: Kernel fast-path flag: True until the first link failure, so the
        #: pristine-fabric inner loop never calls :meth:`grants`.
        self.always_grants = True

    def fail_link(self, a: int, b: int) -> None:
        """Take the (bidirectional) link between two switches out of service."""
        self.failed_pairs.add((a, b))
        self.failed_pairs.add((b, a))
        self.always_grants = False

    def clear_failures(self) -> None:
        """Return every failed hop to service (end-of-run restore)."""
        self.failed_pairs.clear()
        self.always_grants = True

    def resolve_downstream(self, output: OutputPort, dst_switch_id: int) -> InputPort:
        downstream = output.downstream_port
        if downstream is None:
            raise FabricError(
                f"wired output port {output.key!r} of switch "
                f"{output.switch.switch_id} has no downstream port"
            )
        return downstream

    def grants(
        self, src_switch_id: int, packet_id: int, dst_switch_id: int, is_head: bool
    ) -> bool:
        """Grant unless the hop is failed and the flit would commit a packet."""
        if not self.failed_pairs or not is_head:
            return True
        return (src_switch_id, dst_switch_id) not in self.failed_pairs


class _GatedChannel:
    """A channel whose receivers may sleep: its MAC, its member
    transceivers, and the MAC state their asleep flags reflect."""

    __slots__ = ("mac", "members", "seen")

    def __init__(self, mac: MacProtocol, members: List[Tuple[int, Transceiver]]) -> None:
        self.mac = mac
        self.members = members
        #: ``mac.receiver_changes`` when the flags were last set; ``None``
        #: makes the next update set them again.
        self.seen: Optional[int] = None


class WirelessFabric(Fabric, MacDataPlane):
    """Shared-medium state of the deployed wireless interfaces."""

    is_wireless = True
    needs_update = True
    always_grants = False
    tracks_sends = True

    def __init__(
        self,
        switches: List["Switch"],
        config: "NetworkConfig",
    ) -> None:
        if not switches:
            raise FabricError("wireless fabric needs at least one WI switch")
        self._config = config
        wireless_cfg = config.wireless
        self._switches: Dict[int, "Switch"] = {s.switch_id: s for s in switches}
        ordered_ids = sorted(self._switches)
        self._accountant: Optional[EnergyAccountant] = None
        self._pool: Optional[PacketPool] = None
        self._flit_hops = 0
        #: Per-flit dynamic energy of the shared wireless link (identical on
        #: every WI port; cached for the per-channel energy attribution).
        wireless_link = switches[0].wireless_output
        self._flit_energy_pj = (
            wireless_link.link.energy_pj_per_flit
            if wireless_link is not None and wireless_link.link is not None
            else 0.0
        )
        #: WIs whose transceiver has died (fault injection).  A dead WI
        #: reports no pending traffic, accepts nothing and grants no new
        #: packets; in-flight bursts drain (transceiver failures are
        #: packet-atomic, like link failures).  On a power-gated channel a
        #: dead WI sleeps from the next fabric update on.  Without power
        #: gating (token, TDMA, FDMA, or sleepy receivers off) it stays
        #: awake like every transceiver there, drawing idle static power
        #: until the run ends.
        self.dead_wis: Set[int] = set()

        #: Scratch arrays of the hot pending scan (:meth:`scan_pending`);
        #: one row per VC with traffic bound for the WI port, reused across
        #: cycles so the scan allocates nothing after warm-up.
        self.pend_dst: List[int] = []
        self.pend_pid: List[int] = []
        self.pend_buffered: List[int] = []
        self.pend_length: List[int] = []
        self.pend_remaining: List[int] = []
        self.pend_head: List[int] = []

        technology = config.technology
        protocol = mac_spec(wireless_cfg.mac)
        power_gating = wireless_cfg.sleepy_receivers and protocol.supports_sleepy_receivers
        self.transceivers: Dict[int, Transceiver] = {
            wi_id: Transceiver(
                wi_id=wi_id,
                idle_power_mw=technology.wireless_idle_power_mw,
                sleep_power_mw=technology.wireless_sleep_power_mw,
                power_gating=power_gating,
            )
            for wi_id in ordered_ids
        }

        self.macs: List[MacProtocol] = []
        self._mac_of: Dict[int, MacProtocol] = {}
        #: Cycles updated so far: the clock of the transceivers' runs.
        self._cycles = 0
        #: The channels whose receivers may sleep; empty unless the MAC
        #: supports sleepy receivers and they are on, so the other MACs'
        #: transceivers stay awake in one run with no per-cycle work.
        self._gated: List[_GatedChannel] = []
        # WIs join the channels round-robin in id order (see
        # WirelessConfig.num_channels); a channel left without a WI gets no MAC.
        num_channels = wireless_cfg.num_channels
        for channel_id in range(num_channels):
            members = ordered_ids[channel_id::num_channels]
            if not members:
                continue
            mac = protocol.factory(
                MacBuildContext(
                    channel_id=channel_id,
                    wi_switch_ids=members,
                    plane=self,
                    wireless=wireless_cfg,
                    packet_length_flits=config.packet_length_flits,
                ),
            )
            self.macs.append(mac)
            for wi_id in members:
                self._mac_of[wi_id] = mac
            if power_gating:
                gated = [(wi_id, self.transceivers[wi_id]) for wi_id in members]
                self._gated.append(_GatedChannel(mac, gated))

        #: Per-channel energy attribution (settled into
        #: ``SimulationResult.channel_energy_pj`` by :meth:`finalize`).
        self._channel_flit_hops: Dict[int, int] = {
            mac.channel_id: 0 for mac in self.macs
        }
        self._channel_control_pj: Dict[int, float] = {
            mac.channel_id: 0.0 for mac in self.macs
        }
        #: Per channel, the (cycle, WI) of its latest send: the one-
        #: transmitter-per-channel-per-cycle check of :meth:`notify_sent`.
        self._last_send: Dict[int, Tuple[int, int]] = {
            mac.channel_id: (-1, -1) for mac in self.macs
        }

    # ------------------------------------------------------------------
    # MacDataPlane interface (the hot path the MAC protocols read).
    # ------------------------------------------------------------------

    def scan_pending(self, wi_switch_id: int) -> int:
        """Fill the scratch arrays with one WI's wireless-bound traffic.

        Inlines the VC scan on the pool's parallel arrays: for every
        occupied VC of the WI switch (ascending ordinal — the historical
        full-table order) whose current packet leaves over the WI port, one
        scratch row records destination, packet id, buffered flits, packet
        length, flits still to cross the hop, and whether the front flit is
        the packet's head.  Returns the row count; rows of the previous
        scan become invalid.
        """
        if wi_switch_id in self.dead_wis:
            return 0
        pool = self._pool
        if pool is None:
            raise FabricError(
                "wireless fabric has no packet pool bound; the kernel must "
                "call bind_pool() before the first MAC update"
            )
        switch = self._switches[wi_switch_id]
        occupied = switch.occupied
        if not occupied:
            return 0
        pend_dst = self.pend_dst
        pend_pid = self.pend_pid
        pend_buffered = self.pend_buffered
        pend_length = self.pend_length
        pend_remaining = self.pend_remaining
        pend_head = self.pend_head
        pool_pid = pool.pid
        pool_length = pool.length_flits
        pool_route = pool.route
        pool_head_hop = pool.head_hop
        pool_dst_switch = pool.dst_switch
        vc_by_ordinal = switch.vc_by_ordinal
        output_ports = switch.output_ports
        wireless_output = switch.wireless_output
        switch_id = switch.switch_id
        count = 0
        for ordinal in sorted(occupied):
            vc = vc_by_ordinal[ordinal]
            front = vc.front
            handle = front >> FLIT_INDEX_BITS
            current_output = vc.current_output
            if current_output is None:
                # Head flit not yet processed: peek at the route.
                if switch_id == pool_dst_switch[handle]:
                    continue
                dst = pool_route[handle][pool_head_hop[handle] + 1]
                if output_ports.get(dst) is not None:
                    continue  # wired hop
            elif current_output is wireless_output:
                dst = vc.downstream_switch
            else:
                continue
            if count == len(pend_dst):
                pend_dst.append(0)
                pend_pid.append(0)
                pend_buffered.append(0)
                pend_length.append(0)
                pend_remaining.append(0)
                pend_head.append(0)
            front_index = front & FLIT_INDEX_MASK
            pend_dst[count] = dst
            pend_pid[count] = pool_pid[handle]
            pend_buffered[count] = vc.count
            pend_length[count] = pool_length[handle]
            pend_remaining[count] = pool_length[handle] - front_index
            pend_head[count] = 0 if front_index else 1
            count += 1
        return count

    def holds_flits(self, wi_switch_ids: Sequence[int]) -> bool:
        """Whether any of these WI switches has an occupied VC."""
        switches = self._switches
        for wi_switch_id in wi_switch_ids:
            if switches[wi_switch_id].occupied:
                return True
        return False

    def record_control_energy(self, energy_pj: float, channel_id: int) -> None:
        """Charge MAC control/token overhead to the current run's accountant."""
        if self._accountant is not None:
            self._accountant.record_mac_control(energy_pj)
        self._channel_control_pj[channel_id] = (
            self._channel_control_pj.get(channel_id, 0.0) + energy_pj
        )

    def acceptable_flits(self, dst_switch: int, packet_id: int, is_head: bool) -> int:
        """Flits the destination WI can take over the coming burst.

        The receiver drains its buffer into the destination chip's mesh
        while the burst is in the air, so a transmission may announce one
        extra buffer window on top of the space that is free right now.
        """
        if dst_switch in self.dead_wis:
            return 0
        switch = self._switches.get(dst_switch)
        if switch is None or switch.wireless_input is None:
            return 0
        port = switch.wireless_input
        owned = port.find_vc_for_packet(packet_id)
        if owned is not None:
            return max(0, owned.capacity - owned.occupancy) + owned.capacity
        if not is_head:
            return 0
        free = port.find_free_vc()
        if free is None:
            return 0
        return 2 * free.capacity

    # ------------------------------------------------------------------
    # Fabric interface (used by the kernel).
    # ------------------------------------------------------------------

    def bind_accountant(self, accountant: EnergyAccountant) -> None:
        """Attach the energy accountant of the current simulation run."""
        self._accountant = accountant

    def bind_pool(self, pool: PacketPool) -> None:
        """Attach the packet pool of the current simulation run."""
        self._pool = pool

    @property
    def wi_switch_ids(self) -> List[int]:
        """Ids of all WI switches, in sequence order."""
        return sorted(self._switches)

    def wireless_input_port(self, dst_switch_id: int) -> InputPort:
        """The wireless input port of a destination WI switch."""
        switch = self._switches.get(dst_switch_id)
        if switch is None or switch.wireless_input is None:
            raise FabricError(f"switch {dst_switch_id} has no wireless interface")
        return switch.wireless_input

    def resolve_downstream(self, output: OutputPort, dst_switch_id: int) -> InputPort:
        """Wireless hops land on the destination WI's wireless input port."""
        return self.wireless_input_port(dst_switch_id)

    def fail_transceiver(self, wi_switch_id: int) -> None:
        """Take one WI's transceiver out of service (fault injection)."""
        if wi_switch_id not in self._switches:
            raise FabricError(f"switch {wi_switch_id} has no wireless interface")
        self.dead_wis.add(wi_switch_id)
        for channel in self._gated:
            channel.seen = None

    def update(self, cycle: int) -> None:
        """Advance every channel's MAC and the transceiver power states.

        A power-gated channel's transceivers change state only when its
        MAC's ``receiver_changes`` counter moved or a WI died; the new
        runs begin this cycle.
        """
        for mac in self.macs:
            mac.update(cycle)
        now = self._cycles
        self._cycles = now + 1
        for channel in self._gated:
            changes = channel.mac.receiver_changes
            if channel.seen != changes:
                channel.seen = changes
                self._gate_receivers(channel, now)

    def _gate_receivers(self, channel: _GatedChannel, now: int) -> None:
        """Put to sleep the channel's dead WIs and, during a transmission,
        every WI that neither transmits nor is an intended receiver."""
        mac = channel.mac
        dead_wis = self.dead_wis
        transmitter = mac.current_transmitter()
        for wi_id, transceiver in channel.members:
            if wi_id in dead_wis:
                asleep = True
            elif transmitter is None or wi_id == transmitter:
                asleep = False
            else:
                asleep = not mac.is_intended_receiver(wi_id)
            transceiver.set_asleep(asleep, now)

    def may_transmit(self, src_switch_id: int) -> bool:
        """Whether the WI holds its channel: every MAC grants only the WI it
        names as :meth:`~repro.wireless.mac.MacProtocol.current_transmitter`."""
        mac = self._mac_of.get(src_switch_id)
        return mac is not None and mac.current_transmitter() == src_switch_id

    def grants(
        self, src_switch_id: int, packet_id: int, dst_switch_id: int, is_head: bool
    ) -> bool:
        """Whether the owning MAC grants this flit transmission right now."""
        if self.dead_wis and is_head:
            if src_switch_id in self.dead_wis or dst_switch_id in self.dead_wis:
                return False
        mac = self._mac_of.get(src_switch_id)
        if mac is None:
            return False
        return mac.grants(src_switch_id, packet_id, dst_switch_id, is_head)

    def notify_sent(
        self,
        src_switch_id: int,
        packet_id: int,
        dst_switch_id: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        """Notify the owning MAC that a flit went on the air.

        Raises :class:`~repro.noc.virtual_channel.KernelInvariantError` when
        another WI already sent on the same channel in this cycle.
        """
        self._flit_hops += 1
        mac = self._mac_of.get(src_switch_id)
        if mac is not None:
            channel_id = mac.channel_id
            self._channel_flit_hops[channel_id] += 1
            last_cycle, last_sender = self._last_send[channel_id]
            if last_cycle != cycle:
                self._last_send[channel_id] = (cycle, src_switch_id)
            elif last_sender != src_switch_id:
                raise KernelInvariantError(
                    f"two transmitters on channel {channel_id} in cycle {cycle}: "
                    f"WI {last_sender} and WI {src_switch_id}"
                )
            mac.notify_sent(src_switch_id, packet_id, dst_switch_id, is_tail, cycle)

    def finalize(self, result: "SimulationResult", accountant: EnergyAccountant) -> None:
        """Charge transceiver static energy and publish the MAC statistics."""
        for transceiver in self.transceivers.values():
            transceiver.settle(self._cycles)
        accountant.add_transceiver_static_energy(self.total_transceiver_static_energy_pj())
        for mac in self.macs:
            mac.finalize_stats()
        result.mac_statistics = self.mac_statistics()
        result.transceiver_sleep_fraction = self.average_sleep_fraction()
        result.wireless_flit_hops = self._flit_hops
        result.channel_energy_pj = self.channel_energy_breakdown()

    def total_transceiver_static_energy_pj(self) -> float:
        """Static energy of all transceivers over the accounted cycles."""
        cycle_time = self._config.technology.cycle_time_s
        return sum(t.static_energy_pj(cycle_time) for t in self.transceivers.values())

    def mac_statistics(self) -> Dict[int, Dict[str, int]]:
        """Per-channel MAC counters."""
        return {mac.channel_id: mac.stats.as_dict() for mac in self.macs}

    def channel_energy_breakdown(self) -> Dict[int, Dict[str, float]]:
        """Per-channel energy attribution [pJ].

        One entry per active channel: the data energy of the flits that
        crossed the channel, the MAC control/token overhead, and the static
        energy of the channel's transceivers.  Each component sums exactly
        to its aggregate in the run's
        :class:`~repro.energy.accounting.EnergyBreakdown` (``wireless_pj``,
        ``mac_control_pj``, ``transceiver_static_pj``) — the reconciliation
        every run checks when it settles.
        """
        cycle_time = self._config.technology.cycle_time_s
        channel_static: Dict[int, float] = {
            mac.channel_id: sum(
                self.transceivers[wi_id].static_energy_pj(cycle_time) for wi_id in mac.wi_switch_ids
            )
            for mac in self.macs
        }
        breakdown: Dict[int, Dict[str, float]] = {}
        channels = set(self._channel_flit_hops) | set(self._channel_control_pj)
        for channel_id in sorted(channels):
            breakdown[channel_id] = {
                "wireless_pj": (
                    self._channel_flit_hops.get(channel_id, 0) * self._flit_energy_pj
                ),
                "mac_control_pj": self._channel_control_pj.get(channel_id, 0.0),
                "transceiver_static_pj": channel_static.get(channel_id, 0.0),
            }
        return breakdown

    def average_sleep_fraction(self) -> float:
        """Mean fraction of cycles the transceivers spent power-gated."""
        transceivers = list(self.transceivers.values())
        if not transceivers:
            return 0.0
        return sum(t.sleep_fraction() for t in transceivers) / len(transceivers)
