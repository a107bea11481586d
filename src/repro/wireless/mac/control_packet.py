"""The proposed control-packet MAC with partial-packet transmission.

Section III-D: instead of circulating a token after every transmission, each
WI broadcasts a *control packet* at the beginning of its transmission slot.
The control packet carries up to ``max_tuples`` 3-tuples
``(DestWI, PktID, NumFlits)`` — one per output VC — describing exactly which
flits the WI is about to transmit.  Because the destination can map ``PktID``
onto a VC, the WI may transmit *partial* packets (only the flits it has
buffered right now) without breaking wormhole switching, which removes the
whole-packet buffering requirement of the token MAC.  All other WIs learn
the duration of the transmission from the control packet, so the next WI in
the fixed sequence starts its own control packet exactly when the current
transmission ends — no contention, no token.  Receivers that are not listed
as a destination power-gate themselves for the duration of the burst
("sleepy transceivers" [17]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from ...energy.technology import WIRELESS_ENERGY_PJ_PER_BIT
from .base import MacDataPlane, MacProtocol


@dataclass
class TransmissionPlan:
    """The burst a WI announced in its control packet."""

    wi_switch_id: int
    #: Remaining flits per (destination switch, packet id).
    remaining: Dict[Tuple[int, int], int]
    announced_flits: int
    started_cycle: int
    deadline_cycle: int
    #: Destinations with announced flits outstanding.  Maintained
    #: incrementally as flits are consumed so the per-cycle sleepy-receiver
    #: check is a set lookup, never a rebuild.
    live_destinations: Set[int] = field(default_factory=set)
    #: Announced flits still owed: the sum of the positive counts of
    #: :attr:`remaining`, kept by :meth:`consume`.
    outstanding: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.live_destinations = {
            dst for (dst, _), count in self.remaining.items() if count > 0
        }
        self.outstanding = sum(count for count in self.remaining.values() if count > 0)

    @property
    def exhausted(self) -> bool:
        """Whether every announced flit has been transmitted."""
        return self.outstanding <= 0

    def consume(self, dst_switch: int, packet_id: int) -> bool:
        """Account one transmitted flit against the announcement.

        Returns whether ``dst_switch`` left :attr:`live_destinations`.
        """
        key = (dst_switch, packet_id)
        count = self.remaining.get(key)
        if count is None:
            return False
        self.remaining[key] = count - 1
        if count > 0:
            self.outstanding -= 1
        live = self.live_destinations
        if count - 1 <= 0 and dst_switch in live and not any(
            c > 0 for (dst, _), c in self.remaining.items() if dst == dst_switch
        ):
            live.discard(dst_switch)
            return True
        return False


class ControlPacketMac(MacProtocol):
    """Control-packet based, partial-packet, sleepy-receiver MAC."""

    def __init__(
        self,
        channel_id: int,
        wi_switch_ids: Sequence[int],
        plane: MacDataPlane,
        control_packet_cycles: int = 3,
        control_packet_bits: int = 96,
        max_tuples: int = 8,
        cycles_per_flit: int = 1,
        hold_slack_cycles: int = 32,
    ) -> None:
        super().__init__(channel_id, wi_switch_ids, plane)
        if control_packet_cycles <= 0:
            raise ValueError("control_packet_cycles must be positive")
        if max_tuples <= 0:
            raise ValueError("max_tuples must be positive")
        if cycles_per_flit <= 0:
            raise ValueError("cycles_per_flit must be positive")
        self._control_cycles = control_packet_cycles
        self._control_bits = control_packet_bits
        self._max_tuples = max_tuples
        self._cycles_per_flit = cycles_per_flit
        self._hold_slack = hold_slack_cycles
        self._holder_index = 0
        self._plan: Optional[TransmissionPlan] = None
        #: Cycles of control-packet broadcast still to elapse before data
        #: flits of the current burst may be transmitted.
        self._control_remaining = 0

    # ------------------------------------------------------------------
    # MacProtocol interface.
    # ------------------------------------------------------------------

    def current_transmitter(self) -> Optional[int]:
        """WI currently holding the channel (control or data phase)."""
        if self._plan is None:
            return None
        return self._plan.wi_switch_id

    def is_intended_receiver(self, wi_switch_id: int) -> bool:
        """Destinations of the announced burst listen; everyone else may sleep."""
        plan = self._plan
        return plan is not None and wi_switch_id in plan.live_destinations

    def update(self, cycle: int) -> None:
        """Advance the burst schedule at the beginning of a cycle."""
        if self._plan is not None:
            if self._control_remaining > 0:
                self._control_remaining -= 1
                return
            expired = cycle >= self._plan.deadline_cycle
            if self._plan.exhausted or expired:
                if expired and not self._plan.exhausted:
                    self.stats.forced_releases += 1
                self._plan = None
                self.receiver_changes += 1
            else:
                return
        # The channel is free: let WIs announce in sequence.  At most one
        # full rotation is examined per cycle so an all-idle channel costs
        # O(#WIs) work but never loops forever.  When no member buffers a
        # flit, every scan would come back empty and the rotation would
        # end at the same holder: count the idle cycle without it.
        if not self.plane.holds_flits(self.wi_switch_ids):
            self.stats.idle_grant_cycles += 1
            return
        for _ in range(len(self.wi_switch_ids)):
            wi = self.wi_switch_ids[self._holder_index]
            plan = self._build_plan(wi, cycle)
            self._holder_index = self.next_wi_index(self._holder_index)
            if plan is not None:
                self._plan = plan
                self.receiver_changes += 1
                self._control_remaining = self._control_cycles
                self.stats.control_packets += 1
                self.stats.grants += 1
                self.plane.record_control_energy(
                    self._control_bits * WIRELESS_ENERGY_PJ_PER_BIT, self.channel_id
                )
                return
        self.stats.idle_grant_cycles += 1

    def grants(
        self, wi_switch_id: int, packet_id: int, dst_switch: int, is_head: bool
    ) -> bool:
        """Only the announcing WI, only announced flits, only after the control phase."""
        plan = self._plan
        if plan is None or plan.wi_switch_id != wi_switch_id:
            return False
        if self._control_remaining > 0:
            # Data flits may not overlap the control packet broadcast.
            return False
        return plan.remaining.get((dst_switch, packet_id), 0) > 0

    def notify_sent(
        self,
        wi_switch_id: int,
        packet_id: int,
        dst_switch: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        """Consume one announced flit."""
        super().notify_sent(wi_switch_id, packet_id, dst_switch, is_tail, cycle)
        plan = self._plan
        if plan is None or plan.wi_switch_id != wi_switch_id:
            return
        if plan.consume(dst_switch, packet_id):
            self.receiver_changes += 1

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _build_plan(self, wi_switch_id: int, cycle: int) -> Optional[TransmissionPlan]:
        """Announce one WI's burst from a single hot scan of its pending VCs.

        Entry order equals the historical object-path order (ascending VC
        ordinal), so tuple selection under ``max_tuples`` is unchanged.
        """
        plane = self.plane
        count = plane.scan_pending(wi_switch_id)
        if not count:
            return None
        pend_dst = plane.pend_dst
        pend_pid = plane.pend_pid
        pend_buffered = plane.pend_buffered
        pend_remaining = plane.pend_remaining
        pend_head = plane.pend_head
        remaining: Dict[Tuple[int, int], int] = {}
        announced = 0
        for row in range(count):
            if len(remaining) >= self._max_tuples:
                break
            buffered = pend_buffered[row]
            if buffered <= 0:
                continue
            acceptable = plane.acceptable_flits(
                pend_dst[row], pend_pid[row], bool(pend_head[row])
            )
            announced_flits = max(buffered, pend_remaining[row])
            flits = min(announced_flits, acceptable)
            if flits <= 0:
                continue
            key = (pend_dst[row], pend_pid[row])
            remaining[key] = remaining.get(key, 0) + flits
            announced += flits
        if not remaining:
            return None
        duration = self._control_cycles + announced * self._cycles_per_flit
        return TransmissionPlan(
            wi_switch_id=wi_switch_id,
            remaining=remaining,
            announced_flits=announced,
            started_cycle=cycle,
            deadline_cycle=cycle + duration + self._hold_slack,
        )
