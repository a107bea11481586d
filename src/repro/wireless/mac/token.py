"""Baseline token-passing MAC [7].

A token circulates over the WIs of a channel in a fixed sequence; only the
token holder may transmit, and "only whole packets are transmitted to other
WIs, to maintain the integrity of the wormhole switching" [11].  The holder
therefore waits until an entire packet is buffered at its WI before starting
a transmission, and releases the token after the tail flit (or immediately,
after a token-pass latency, when it has nothing eligible to send).

The whole-packet rule is what drives the WI buffer requirement (and hence
static power) up — the motivation for the control-packet MAC the paper
proposes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ...energy.technology import WIRELESS_ENERGY_PJ_PER_BIT
from .base import MacDataPlane, MacProtocol

#: Size of the circulating token [bits]; only used for energy accounting.
TOKEN_BITS = 8


class TokenMac(MacProtocol):
    """Token-passing channel arbitration with whole-packet transmissions."""

    def __init__(
        self,
        channel_id: int,
        wi_switch_ids: Sequence[int],
        plane: MacDataPlane,
        token_pass_latency_cycles: int = 2,
        max_hold_cycles: int = 4096,
    ) -> None:
        super().__init__(channel_id, wi_switch_ids, plane)
        if token_pass_latency_cycles < 0:
            raise ValueError("token_pass_latency_cycles must be non-negative")
        if max_hold_cycles <= 0:
            raise ValueError("max_hold_cycles must be positive")
        self._token_pass_latency = token_pass_latency_cycles
        self._max_hold_cycles = max_hold_cycles
        self._holder_index = 0
        self._passing_until = 0
        self._active_packet: Optional[int] = None
        self._active_destination: Optional[int] = None
        self._hold_since = 0

    # ------------------------------------------------------------------
    # MacProtocol interface.
    # ------------------------------------------------------------------

    def current_transmitter(self) -> Optional[int]:
        """The token holder (even while idle — the token is with it)."""
        if self._passing_until > 0:
            return None
        return self.wi_switch_ids[self._holder_index]

    # Token MAC receivers are always awake (the base-class default of
    # ``is_intended_receiver`` already says "everyone listens").

    def update(self, cycle: int) -> None:
        """Pass the token when the holder has nothing eligible to transmit."""
        if self._passing_until > 0:
            if cycle < self._passing_until:
                return
            self._passing_until = 0
            self._hold_since = cycle
        if self._active_packet is not None:
            if cycle - self._hold_since > self._max_hold_cycles:
                # Safety valve: a stalled destination cannot capture the
                # channel forever.
                self.stats.forced_releases += 1
                self._active_packet = None
                self._active_destination = None
                self._pass_token(cycle)
            return
        holder = self.wi_switch_ids[self._holder_index]
        if self._eligible_packet(holder) is None:
            self.stats.idle_grant_cycles += 1
            self._pass_token(cycle)

    def grants(
        self, wi_switch_id: int, packet_id: int, dst_switch: int, is_head: bool
    ) -> bool:
        """Only the holder transmits, and only whole buffered packets."""
        if self._passing_until > 0:
            return False
        if wi_switch_id != self.wi_switch_ids[self._holder_index]:
            return False
        if self._active_packet is not None:
            return packet_id == self._active_packet
        if not is_head:
            return False
        eligible = self._eligible_packet(wi_switch_id)
        return eligible == packet_id

    def notify_sent(
        self,
        wi_switch_id: int,
        packet_id: int,
        dst_switch: int,
        is_tail: bool,
        cycle: int,
    ) -> None:
        """Track the in-flight packet; release the token after the tail."""
        super().notify_sent(wi_switch_id, packet_id, dst_switch, is_tail, cycle)
        if self._active_packet is None:
            self._active_packet = packet_id
            self._active_destination = dst_switch
            self._hold_since = cycle
            self.stats.grants += 1
        if is_tail:
            self._active_packet = None
            self._active_destination = None
            self._pass_token(cycle)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _eligible_packet(self, wi_switch_id: int) -> Optional[int]:
        """Packet id of a fully-buffered packet the destination can accept.

        One hot scan of the WI's pending traffic; entry order equals the
        historical object-path order (ascending VC ordinal), so the first
        eligible packet is the same one the legacy path picked.
        """
        plane = self.plane
        count = plane.scan_pending(wi_switch_id)
        if not count:
            return None
        pend_head = plane.pend_head
        pend_buffered = plane.pend_buffered
        pend_length = plane.pend_length
        pend_dst = plane.pend_dst
        pend_pid = plane.pend_pid
        for row in range(count):
            if not pend_head[row]:
                continue
            if pend_buffered[row] < pend_length[row]:
                continue
            if plane.acceptable_flits(pend_dst[row], pend_pid[row], True) <= 0:
                continue
            return pend_pid[row]
        return None

    def _pass_token(self, cycle: int) -> None:
        self._holder_index = self.next_wi_index(self._holder_index)
        self._passing_until = cycle + max(1, self._token_pass_latency)
        self.stats.token_passes += 1
        self.plane.record_control_energy(
            TOKEN_BITS * WIRELESS_ENERGY_PJ_PER_BIT, self.channel_id
        )
