"""Virtual-channel buffers.

Every switch port carries 8 virtual channels with a 16-flit buffer each
(Section IV).  A VC is owned by at most one packet at a time: the upstream
switch allocates it when it forwards the packet's head flit and the
ownership is released when the tail flit leaves the buffer, exactly as in
credit-based wormhole flow control.  Instead of mirroring credit counters at
the upstream switch, the simulator tracks ``in_flight`` reservations on the
downstream VC itself, which is equivalent and keeps the bookkeeping in one
place.

Because a VC holds the flits of exactly one packet, and they arrive in the
order they were sent, its buffer needs no storage: the buffered flits are
always a run of consecutive flits of the owning packet.  The buffer is
``front``, the packed flit integer at its head (see :mod:`repro.noc.pool`),
plus a ``count``; the run is ``front .. front + count - 1``.  A push only
bumps ``count``, a pop reads ``front`` and advances it by one, and the head
send that claims a VC sets its ``front``.  The invariant is enforced where
VCs are claimed: a head flit takes only a VC with no owner, no buffered
flit and no reservation (the kernel's eligibility scan and
:meth:`~repro.noc.port.InputPort.find_free_vc` use the same rule), and a
packet's flits all cross one upstream VC and one fixed-latency link.

The simulation kernel owns every buffer operation and inlines it, so the
per-flit hot path never crosses a method boundary.  The methods here are
the cold paths: occupancy, a FIFO snapshot for diagnostics, the fault
purge, and state resets.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .port import InputPort, OutputPort


class KernelInvariantError(RuntimeError):
    """An invariant of the simulation run was violated.

    Raised when VC ownership, reservation or per-packet routing state is
    inconsistent (a flit delivered without a reservation, a VC handed to
    two packets, a head flit at a switch off its route), when two WIs
    transmit on one wireless channel in the same cycle, and when a run's
    books do not settle (flit conservation, per-channel energy
    reconciliation).  These never happen on a healthy run, so one means a
    kernel bug or corrupted state.
    """


class VirtualChannel:
    """One VC buffer of an input port."""

    __slots__ = (
        "port",
        "index",
        "ordinal",
        "capacity",
        "front",
        "count",
        "in_flight",
        "allocated_packet_id",
        "current_output",
        "downstream_port",
        "downstream_switch",
        "send_target",
        "source_packet",
        "source_flits_emitted",
    )

    def __init__(self, port: "InputPort", index: int, ordinal: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.port = port
        self.index = index
        #: Switch-wide unique ordinal used for round-robin arbitration.
        self.ordinal = ordinal
        self.capacity = capacity
        #: Packed front flit; the buffered flits are ``front .. front +
        #: count - 1``, consecutive flits of the owning packet.  Meaningless
        #: while ``count`` is 0 until the packet's head claims the VC.
        self.front = 0
        self.count = 0
        #: Flits sent towards this VC but not yet arrived (reserve buffer space).
        self.in_flight = 0
        #: Packet id currently owning this VC (set at head allocation).
        self.allocated_packet_id: Optional[int] = None
        #: Output port the current packet takes out of this switch.
        self.current_output: Optional["OutputPort"] = None
        #: Input port at the next switch the current packet is heading to.
        self.downstream_port: Optional["InputPort"] = None
        #: Switch id of the next hop (needed for wireless ports whose
        #: destination differs per packet).
        self.downstream_switch: Optional[int] = None
        #: Downstream VC the current packet flows into.  The head flit's
        #: eligibility scan picks a free one; once the head is sent there,
        #: the body flits behind it reuse it instead of re-scanning the
        #: downstream port.  Cleared at the tail send and by :meth:`release`,
        #: :meth:`reset_routing` and :meth:`reset`.
        self.send_target: Optional["VirtualChannel"] = None
        #: Injection state (local/source VCs only): pool handle of the
        #: packet being serialised into this VC and how many of its flits
        #: have been emitted.
        self.source_packet: Optional[int] = None
        self.source_flits_emitted = 0

    # ------------------------------------------------------------------
    # Occupancy / flow control.
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Buffered plus in-flight flits (the space already spoken for)."""
        return self.count + self.in_flight

    @property
    def buffer(self) -> List[int]:
        """The buffered flits in FIFO order (a snapshot, not live storage).

        Cold-path/diagnostic accessor; the kernel reads ``front`` directly.
        """
        return list(range(self.front, self.front + self.count))

    def clear_buffer(self) -> int:
        """Drop every buffered flit (fault purge); returns how many."""
        dropped = self.count
        self.count = 0
        self.port.switch.occupied.discard(self.ordinal)
        return dropped

    def release(self) -> None:
        """Release ownership and per-packet routing state."""
        self.allocated_packet_id = None
        self.current_output = None
        self.downstream_port = None
        self.downstream_switch = None
        self.send_target = None

    def reset(self) -> None:
        """Return the VC to its as-built state (network reuse across runs).

        The VC has no buffer storage to keep or allocate: resetting
        ``front``, ``count`` and ``in_flight`` empties it.
        """
        self.front = 0
        self.count = 0
        self.in_flight = 0
        self.allocated_packet_id = None
        self.current_output = None
        self.downstream_port = None
        self.downstream_switch = None
        self.send_target = None
        self.source_packet = None
        self.source_flits_emitted = 0

    def reset_routing(self) -> None:
        """Clear cached routing decisions (used when reconfiguring)."""
        self.current_output = None
        self.downstream_port = None
        self.downstream_switch = None
        self.send_target = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"VC(port={self.port.key!r}, index={self.index}, "
            f"occ={self.occupancy}/{self.capacity}, "
            f"packet={self.allocated_packet_id})"
        )
