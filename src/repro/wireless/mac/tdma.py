"""Static TDMA (slotted) MAC.

The simplest contention-free arbitration: time is divided into fixed-length
slots assigned to the channel's WIs in their fixed sequence order, and only
the slot owner may transmit.  A configurable guard time at the start of
every slot models the synchronisation margin between transmitters.  No
token circulates and no control packet is broadcast, so the protocol has
zero arbitration energy and zero per-transmission handshake latency — at
the price of wasting every slot whose owner has nothing to send (the
classic TDMA utilisation loss the token and control-packet protocols exist
to avoid).

Like the control-packet MAC, partial packets are allowed: receivers map the
packet id onto the owning VC, so a burst may pause at a slot boundary and
resume in the owner's next slot without breaking wormhole switching.
Receivers stay awake in every slot (static TDMA radios have no per-burst
destination announcement to gate on), so there is no sleepy-receiver
saving.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .base import MacDataPlane, MacProtocol


class TdmaMac(MacProtocol):
    """Fixed-schedule slotted arbitration: only the slot owner transmits."""

    def __init__(
        self,
        channel_id: int,
        wi_switch_ids: Sequence[int],
        plane: MacDataPlane,
        slot_cycles: int = 64,
        guard_cycles: int = 1,
    ) -> None:
        super().__init__(channel_id, wi_switch_ids, plane)
        if slot_cycles <= 0:
            raise ValueError("slot_cycles must be positive")
        if not 0 <= guard_cycles < slot_cycles:
            raise ValueError("guard_cycles must be in [0, slot_cycles)")
        self.slot_cycles = slot_cycles
        self.guard_cycles = guard_cycles
        self._owner_index = 0
        self._slot_index = 0
        self._in_guard = guard_cycles > 0
        #: Flits transmitted during the current slot (slot-utilisation stats).
        self._slot_flits = 0
        #: Cycle most recently seen by :meth:`update` (sizes the final,
        #: possibly partial, slot when the run ends mid-slot).
        self._last_cycle = -1

    # ------------------------------------------------------------------
    # MacProtocol interface.
    # ------------------------------------------------------------------

    def current_transmitter(self) -> Optional[int]:
        """The slot owner (even while idle — the slot is unconditionally its)."""
        return self.wi_switch_ids[self._owner_index]

    def update(self, cycle: int) -> None:
        """Advance the fixed slot schedule."""
        slot = cycle // self.slot_cycles
        if slot != self._slot_index:
            # Slot rollover: settle the previous slot's utilisation stats.
            if self._slot_flits > 0:
                self.stats.grants += 1
            else:
                self.stats.idle_grant_cycles += self.slot_cycles
            self._slot_flits = 0
            self._slot_index = slot
            self._owner_index = slot % len(self.wi_switch_ids)
        self._in_guard = (cycle % self.slot_cycles) < self.guard_cycles
        self._last_cycle = cycle

    def finalize_stats(self) -> None:
        """Settle the final (possibly partial) slot when the run ends."""
        if self._last_cycle < 0:
            return
        if self._slot_flits > 0:
            self.stats.grants += 1
        else:
            self.stats.idle_grant_cycles += (self._last_cycle % self.slot_cycles) + 1
        self._slot_flits = 0
        self._last_cycle = -1

    def grants(
        self, wi_switch_id: int, packet_id: int, dst_switch: int, is_head: bool
    ) -> bool:
        """Only the slot owner, and never inside the guard time."""
        if self._in_guard:
            return False
        return wi_switch_id == self.wi_switch_ids[self._owner_index]

    def notify_sent(
        self,
        wi_switch_id: int,
        packet_id: int,
        dst_switch: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        super().notify_sent(wi_switch_id, packet_id, dst_switch, is_tail, cycle)
        self._slot_flits += 1
