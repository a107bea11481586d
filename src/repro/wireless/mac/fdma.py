"""FDMA-style multi-channel MAC.

Dedicates an equal share of the channel's capacity to every WI, the way a
frequency-division front end would split the 16 GHz antenna bandwidth into
per-WI sub-bands: each WI effectively owns a private ``1/n``-rate link and
never waits for arbitration.  The cycle-accurate model keeps the
shared-medium invariant (at most one flit in the air per channel per cycle)
by *interleaving the sub-bands at cycle granularity* — WI ``i`` owns every
cycle ``c`` with ``c % n == i`` — which yields the same per-WI sustained
rate and the same aggregate channel capacity as true frequency division,
with the contention-free, arbitration-free latency profile that
distinguishes FDMA from the token and slotted protocols.

Partial packets are allowed (receivers map the packet id onto the owning
VC, as with the control-packet MAC) and receivers stay awake: a sub-band
carries no announcement to power-gate on.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .base import MacDataPlane, MacProtocol


class FdmaMac(MacProtocol):
    """Per-WI dedicated sub-bands, modelled as cycle-granular interleaving."""

    def __init__(
        self,
        channel_id: int,
        wi_switch_ids: Sequence[int],
        plane: MacDataPlane,
    ) -> None:
        super().__init__(channel_id, wi_switch_ids, plane)
        self._owner_index = 0
        #: Per-WI packet id of the flit most recently sent on that WI's
        #: sub-band; a new packet id on a sub-band = one grant.  Per WI
        #: because the sub-bands interleave at cycle granularity, so bursts
        #: of different WIs are concurrently in flight.
        self._last_packet: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # MacProtocol interface.
    # ------------------------------------------------------------------

    def current_transmitter(self) -> Optional[int]:
        """The WI whose sub-band slice is live this cycle."""
        return self.wi_switch_ids[self._owner_index]

    def update(self, cycle: int) -> None:
        """Rotate the live sub-band slice."""
        self._owner_index = cycle % len(self.wi_switch_ids)

    def grants(
        self, wi_switch_id: int, packet_id: int, dst_switch: int, is_head: bool
    ) -> bool:
        """A WI transmits exactly on its own sub-band slice."""
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
        if self._last_packet.get(wi_switch_id) != packet_id:
            self.stats.grants += 1
            self._last_packet[wi_switch_id] = packet_id
        if is_tail:
            self._last_packet.pop(wi_switch_id, None)
