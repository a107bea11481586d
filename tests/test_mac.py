"""Unit tests of the wireless MAC protocols against a scripted data plane."""

from typing import Dict, List, Tuple

import pytest

from repro.wireless.mac import ControlPacketMac, FdmaMac, MacDataPlane, TdmaMac, TokenMac


class ScriptedAdapter(MacDataPlane):
    """A MAC data plane whose pending traffic is set directly by the test.

    Each scripted row is ``(dst, packet_id, buffered, length, remaining,
    head)``, in the order of the ``pend_*`` scratch arrays.
    """

    def __init__(self) -> None:
        self.pending_by_wi: Dict[int, List[Tuple[int, int, int, int, int, int]]] = {}
        self.space: Dict[Tuple[int, int], int] = {}
        self.control_energy_pj = 0.0
        self.pend_dst: List[int] = []
        self.pend_pid: List[int] = []
        self.pend_buffered: List[int] = []
        self.pend_length: List[int] = []
        self.pend_remaining: List[int] = []
        self.pend_head: List[int] = []

    def scan_pending(self, wi_switch_id: int) -> int:
        rows = self.pending_by_wi.get(wi_switch_id, [])
        self.pend_dst = [row[0] for row in rows]
        self.pend_pid = [row[1] for row in rows]
        self.pend_buffered = [row[2] for row in rows]
        self.pend_length = [row[3] for row in rows]
        self.pend_remaining = [row[4] for row in rows]
        self.pend_head = [row[5] for row in rows]
        return len(rows)

    def holds_flits(self, wi_switch_ids) -> bool:
        return any(self.pending_by_wi.get(wi) for wi in wi_switch_ids)

    def record_control_energy(self, energy_pj: float, channel_id: int) -> None:
        self.control_energy_pj += energy_pj

    def acceptable_flits(self, dst_switch: int, packet_id: int, is_head: bool) -> int:
        return self.space.get((dst_switch, packet_id), 64)

    # Helpers -----------------------------------------------------------

    def set_pending(self, wi: int, dst: int, packet_id: int, buffered: int,
                    length: int, is_head: bool = True, remaining: int = None) -> None:
        row = (
            dst,
            packet_id,
            buffered,
            length,
            remaining if remaining is not None else length,
            1 if is_head else 0,
        )
        self.pending_by_wi.setdefault(wi, []).append(row)

    def clear(self, wi: int) -> None:
        self.pending_by_wi.pop(wi, None)


class TestControlPacketMac:
    def _mac(self, adapter, wis=(10, 20, 30)):
        return ControlPacketMac(0, list(wis), adapter, control_packet_cycles=2)

    def test_idle_channel_grants_nobody(self):
        adapter = ScriptedAdapter()
        mac = self._mac(adapter)
        mac.update(0)
        assert mac.current_transmitter() is None
        assert not mac.grants(10, 1, 20, True)

    def test_idle_channel_keeps_its_holder_and_counts_idle_cycles(self, monkeypatch):
        """With no member holding a flit, no WI is scanned and the rotation
        stays where it was; each such cycle counts one idle cycle."""
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=20, packet_id=1, buffered=1, length=1)
        mac = self._mac(adapter)
        mac.update(0)
        mac.update(1)
        mac.update(2)
        mac.notify_sent(10, 1, 20, is_tail=True, cycle=2)
        adapter.clear(10)
        holder = mac._holder_index
        idle = mac.stats.idle_grant_cycles
        scans = []
        scan = adapter.scan_pending
        monkeypatch.setattr(adapter, "scan_pending", lambda wi: scans.append(wi) or scan(wi))
        for cycle in range(3, 13):
            mac.update(cycle)
            assert mac.current_transmitter() is None
        assert scans == []
        assert mac._holder_index == holder
        assert mac.stats.idle_grant_cycles == idle + 10
        # Traffic anywhere on the channel restarts the announce rotation
        # at the same holder.
        adapter.set_pending(30, dst=10, packet_id=2, buffered=1, length=1)
        mac.update(13)
        assert scans == [20, 30]
        assert mac.current_transmitter() == 30

    def test_grant_follows_pending_traffic(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(20, dst=30, packet_id=5, buffered=4, length=8)
        mac = self._mac(adapter)
        mac.update(0)
        assert mac.current_transmitter() == 20
        # During the control-packet broadcast no data may be sent.
        assert not mac.grants(20, 5, 30, True)
        mac.update(1)
        mac.update(2)
        assert mac.grants(20, 5, 30, True)
        # Other WIs are excluded while 20 holds the channel.
        assert not mac.grants(10, 5, 30, True)

    def test_control_packet_energy_charged(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=20, packet_id=1, buffered=2, length=4)
        mac = self._mac(adapter)
        mac.update(0)
        assert adapter.control_energy_pj > 0
        assert mac.stats.control_packets == 1

    def test_burst_consumption_and_rotation(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=20, packet_id=1, buffered=2, length=2)
        mac = self._mac(adapter)
        mac.update(0)
        mac.update(1)
        mac.update(2)
        assert mac.grants(10, 1, 20, True)
        mac.notify_sent(10, 1, 20, is_tail=False, cycle=3)
        mac.notify_sent(10, 1, 20, is_tail=True, cycle=4)
        adapter.clear(10)
        adapter.set_pending(30, dst=10, packet_id=2, buffered=1, length=1)
        mac.update(5)
        assert mac.current_transmitter() == 30

    def test_partial_packet_transmission_allowed(self):
        """Only the buffered/acceptable part of a packet is announced."""
        adapter = ScriptedAdapter()
        adapter.space[(20, 1)] = 3
        adapter.set_pending(10, dst=20, packet_id=1, buffered=6, length=64, remaining=64)
        mac = self._mac(adapter)
        mac.update(0)
        plan = mac._plan  # internal, but the partial-packet rule is the point
        assert plan is not None
        assert plan.remaining[(20, 1)] == 3

    def test_sleepy_receiver_set(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=30, packet_id=1, buffered=2, length=4)
        mac = self._mac(adapter)
        mac.update(0)
        receivers = mac.intended_receivers()
        assert receivers == {30}

    def test_deadline_forces_release(self):
        adapter = ScriptedAdapter()
        adapter.space[(20, 1)] = 64
        adapter.set_pending(10, dst=20, packet_id=1, buffered=4, length=4)
        mac = ControlPacketMac(0, [10, 20], adapter, control_packet_cycles=1,
                               hold_slack_cycles=2)
        mac.update(0)
        # Never send anything; after the deadline the channel must be freed.
        for cycle in range(1, 40):
            mac.update(cycle)
        assert mac.stats.forced_releases >= 1

    def test_invalid_parameters(self):
        adapter = ScriptedAdapter()
        with pytest.raises(ValueError):
            ControlPacketMac(0, [], adapter)
        with pytest.raises(ValueError):
            ControlPacketMac(0, [1], adapter, control_packet_cycles=0)


class TestTokenMac:
    def _mac(self, adapter, wis=(10, 20)):
        return TokenMac(0, list(wis), adapter, token_pass_latency_cycles=1)

    def test_only_holder_with_whole_packet_may_send(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=20, packet_id=1, buffered=2, length=4)
        mac = self._mac(adapter)
        mac.update(0)
        # Packet only partially buffered: the token MAC must refuse it.
        assert not mac.grants(10, 1, 20, True)

    def test_whole_packet_transmission_and_token_release(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(10, dst=20, packet_id=1, buffered=4, length=4)
        mac = self._mac(adapter)
        mac.update(0)
        assert mac.grants(10, 1, 20, True)
        mac.notify_sent(10, 1, 20, is_tail=False, cycle=0)
        assert mac.grants(10, 1, 20, False)
        mac.notify_sent(10, 1, 20, is_tail=True, cycle=3)
        # Tail sent: the token moves on.
        assert mac.stats.token_passes >= 1
        assert not mac.grants(10, 1, 20, True)

    def test_token_rotates_when_holder_idle(self):
        adapter = ScriptedAdapter()
        mac = self._mac(adapter)
        passes_before = mac.stats.token_passes
        for cycle in range(6):
            mac.update(cycle)
        assert mac.stats.token_passes > passes_before

    def test_non_holder_never_sends(self):
        adapter = ScriptedAdapter()
        adapter.set_pending(20, dst=10, packet_id=3, buffered=4, length=4)
        mac = self._mac(adapter)
        mac.update(0)
        assert not mac.grants(20, 3, 10, True) or mac.current_transmitter() == 20

    def test_receivers_always_awake(self):
        adapter = ScriptedAdapter()
        mac = self._mac(adapter)
        assert mac.intended_receivers() == {10, 20}


class TestTdmaMac:
    def _mac(self, adapter, wis=(10, 20), slot_cycles=4, guard_cycles=1):
        return TdmaMac(0, list(wis), adapter, slot_cycles=slot_cycles,
                       guard_cycles=guard_cycles)

    def test_only_slot_owner_may_send(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(1)  # past the guard cycle of WI 10's slot
        assert mac.current_transmitter() == 10
        assert mac.grants(10, 1, 20, True)
        assert not mac.grants(20, 1, 10, True)

    def test_guard_time_blocks_data(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(0)  # first cycle of the slot is the guard
        assert not mac.grants(10, 1, 20, True)
        mac.update(1)
        assert mac.grants(10, 1, 20, True)

    def test_schedule_rotates_between_slots(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(1)
        assert mac.current_transmitter() == 10
        mac.update(5)  # second slot (cycles 4-7) belongs to WI 20
        assert mac.current_transmitter() == 20
        assert mac.grants(20, 2, 10, True)
        mac.update(9)  # wraps back to WI 10
        assert mac.current_transmitter() == 10

    def test_idle_slot_counts_as_idle_grant_cycles(self):
        mac = self._mac(ScriptedAdapter())
        for cycle in range(9):
            mac.update(cycle)
        assert mac.stats.idle_grant_cycles >= 8  # two empty slots settled

    def test_finalize_settles_the_last_slot(self):
        """Flits of the run's final slot still count as a grant."""
        mac = self._mac(ScriptedAdapter())
        mac.update(1)
        mac.notify_sent(10, 3, 20, is_tail=False, cycle=1)
        assert mac.stats.grants == 0  # no rollover observed yet
        mac.finalize_stats()
        assert mac.stats.grants == 1
        mac.finalize_stats()  # idempotent
        assert mac.stats.grants == 1

    def test_finalize_counts_partial_idle_slot(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(0)
        mac.update(1)  # run ends two cycles into an empty 4-cycle slot
        mac.finalize_stats()
        assert mac.stats.idle_grant_cycles == 2

    def test_partial_burst_resumes_across_slots(self):
        """A burst interrupted by the slot boundary stays grantable later."""
        mac = self._mac(ScriptedAdapter())
        mac.update(1)
        mac.notify_sent(10, 7, 20, is_tail=False, cycle=1)
        mac.update(5)  # WI 20's slot: 10 is blocked mid-packet
        assert not mac.grants(10, 7, 20, False)
        mac.update(9)  # 10's next slot: body flits continue
        assert mac.grants(10, 7, 20, False)
        assert mac.stats.grants >= 1

    def test_everyone_listens(self):
        mac = self._mac(ScriptedAdapter())
        assert mac.intended_receivers() == {10, 20}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self._mac(ScriptedAdapter(), slot_cycles=0)
        with pytest.raises(ValueError):
            self._mac(ScriptedAdapter(), slot_cycles=4, guard_cycles=4)


class TestFdmaMac:
    def _mac(self, adapter, wis=(10, 20, 30)):
        return FdmaMac(0, list(wis), adapter)

    def test_subband_interleaves_by_cycle(self):
        mac = self._mac(ScriptedAdapter())
        owners = []
        for cycle in range(6):
            mac.update(cycle)
            owners.append(mac.current_transmitter())
        assert owners == [10, 20, 30, 10, 20, 30]

    def test_only_subband_owner_may_send(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(1)
        assert mac.grants(20, 1, 30, True)
        assert not mac.grants(10, 1, 30, True)
        assert not mac.grants(30, 1, 10, True)

    def test_burst_counting(self):
        mac = self._mac(ScriptedAdapter())
        mac.update(0)
        mac.notify_sent(10, 5, 20, is_tail=False, cycle=0)
        mac.update(3)
        mac.notify_sent(10, 5, 20, is_tail=True, cycle=3)
        assert mac.stats.grants == 1
        assert mac.stats.flits_transmitted == 2

    def test_interleaved_bursts_count_one_grant_per_wi(self):
        """Concurrent bursts on alternating sub-bands are two grants, not six."""
        mac = self._mac(ScriptedAdapter(), wis=(10, 20))
        for cycle in range(6):
            mac.update(cycle)
            owner = mac.current_transmitter()
            packet = 5 if owner == 10 else 8
            mac.notify_sent(owner, packet, 30, is_tail=cycle >= 4, cycle=cycle)
        assert mac.stats.grants == 2
        assert mac.stats.flits_transmitted == 6

    def test_everyone_listens(self):
        mac = self._mac(ScriptedAdapter())
        assert mac.intended_receivers() == {10, 20, 30}
