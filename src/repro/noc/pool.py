"""Array-backed packet and flit storage: the simulator's pooled data plane.

The per-cycle inner loop used to allocate one Python object per flit and
chase attribute chains (``flit.packet.dst_switch``) for every move.  At 64
flits per packet a single run creates hundreds of thousands of flit
objects, and the allocator/GC churn dominates the wall clock — the same
object-churn bottleneck that flat, index-addressed cycle-accurate
simulators (e.g. FireSim's host decoupling structures) avoid by design.

This module replaces those objects with two pooled representations:

* :class:`PacketPool` — every packet field lives in a preallocated parallel
  array (plain Python lists, grown in chunks) addressed by an integer
  *handle*.  Handles are recycled through a free list when the tail flit is
  ejected (or the packet is purged by fault recovery), so steady-state runs
  allocate nothing per packet.  A monotonically increasing ``pid`` array
  keeps the globally unique packet id the rest of the system (VC ownership,
  MAC grants, statistics) keys on — handles recycle, pids never do, so no
  identity can alias across a handle's lifetimes.
* :class:`FlitPool` — a flit is fully determined by *(packet handle, flit
  index)*, so flit "records" need no storage at all: a flit handle is the
  two fields packed into one integer (``handle << FLIT_INDEX_BITS | index``).
  Creating a flit is a shift-or; ``is_head``/``is_tail`` are arithmetic on
  the packed index and the pooled packet length.  The simulator moves bare
  integers between ring buffers — no allocation, no GC pressure, no
  attribute chases.

The old object API (:class:`~repro.noc.packet.Packet`,
:class:`~repro.noc.flit.Flit`) survives for unit tests and as the boundary
representation: :class:`PacketView` is a thin read view over one pooled
record with the full legacy attribute surface, handed to traffic-model
callbacks (``on_packet_delivered``) and anything else that still wants an
object.

Handle lifecycle (the conservation contract, property-tested in
``tests/test_pool.py``)::

    alloc (traffic enqueue) ──▶ live (queued / in flight) ──▶ free
                                             │                  ▲
                                             └── tail ejected ──┤
                                             └── purged by fault recovery

    allocated_total == freed_total + live_count   (always)

and every live handle corresponds to a packet that is still queued at a
source, buffered in a VC, or streaming between switches.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

#: Bits of a flit handle reserved for the flit index within its packet.
FLIT_INDEX_BITS = 12
#: Mask extracting the flit index from a flit handle.
FLIT_INDEX_MASK = (1 << FLIT_INDEX_BITS) - 1
#: Largest packet length the packed flit representation supports.
MAX_PACKET_LENGTH_FLITS = 1 << FLIT_INDEX_BITS

#: Handles are granted in chunks of this many records at a time.
_GROWTH_CHUNK = 256

class FlitPool:
    """Packed-integer flit handles over one :class:`PacketPool`.

    A flit handle encodes ``(packet_handle, flit_index)`` as
    ``packet_handle << FLIT_INDEX_BITS | flit_index``; the two derived
    fields (head/tail position) are computed from the packed index and the
    pooled packet length, so the pool stores nothing per flit.  The hot
    kernel paths inline the shift/mask arithmetic directly; this class is
    the readable, non-inlined spelling used by colder code and tests.
    """

    __slots__ = ("packets",)

    def __init__(self, packets: "PacketPool") -> None:
        self.packets = packets

    @staticmethod
    def handle(packet_handle: int, index: int) -> int:
        """The flit handle for position ``index`` of a pooled packet."""
        return (packet_handle << FLIT_INDEX_BITS) | index

    @staticmethod
    def packet_of(flit: int) -> int:
        """The packet handle a flit handle belongs to."""
        return flit >> FLIT_INDEX_BITS

    @staticmethod
    def index_of(flit: int) -> int:
        """The position of a flit within its packet."""
        return flit & FLIT_INDEX_MASK

    @staticmethod
    def is_head(flit: int) -> bool:
        """Whether the flit opens its packet (reserves the path)."""
        return (flit & FLIT_INDEX_MASK) == 0

    def is_tail(self, flit: int) -> bool:
        """Whether the flit closes its packet (releases the path)."""
        return (flit & FLIT_INDEX_MASK) == (self.packets.length_flits[flit >> FLIT_INDEX_BITS] - 1)


class PacketPool:
    """Preallocated parallel arrays of packet records, keyed by handle.

    Field names mirror :class:`~repro.noc.packet.Packet` attribute for
    attribute; ``route_ports`` additionally holds the route compiled to the
    dense per-hop output-port table (see
    :meth:`repro.noc.kernel.KernelState.compile_route_ports`), so the
    allocation inner loop never resolves a neighbour dictionary.

    Every field is a plain Python list — the fastest representation for
    the kernel's one-record-at-a-time access pattern.  Capacity grows by
    ``max(_GROWTH_CHUNK, capacity)`` records (amortised doubling), in
    place with ``extend``, so references cached into the columns stay
    valid; the new handles join the free list in descending order so
    allocation hands them out ascending.
    """

    __slots__ = (
        "pid",
        "src_endpoint",
        "dst_endpoint",
        "src_switch",
        "dst_switch",
        "length_flits",
        "generation_cycle",
        "injection_cycle",
        "ejection_cycle",
        "route",
        "route_ports",
        "head_hop",
        "energy_pj",
        "flits_ejected",
        "is_memory_access",
        "is_reply",
        "measured",
        "traffic_class",
        "free_list",
        "allocated_total",
        "freed_total",
        "flits",
    )

    def __init__(self) -> None:
        self.pid: List[int] = []
        self.src_endpoint: List[int] = []
        self.dst_endpoint: List[int] = []
        self.src_switch: List[int] = []
        self.dst_switch: List[int] = []
        self.length_flits: List[int] = []
        self.generation_cycle: List[int] = []
        self.injection_cycle: List[Optional[int]] = []
        self.ejection_cycle: List[Optional[int]] = []
        self.route: List[Optional[List[int]]] = []
        self.route_ports: List[Optional[list]] = []
        self.head_hop: List[int] = []
        self.energy_pj: List[float] = []
        self.flits_ejected: List[int] = []
        self.is_memory_access: List[bool] = []
        self.is_reply: List[bool] = []
        self.measured: List[bool] = []
        self.traffic_class: List[str] = []
        #: Recycled handles, most recently freed last (LIFO reuse keeps the
        #: working set of array rows hot).
        self.free_list: List[int] = []
        self.allocated_total = 0
        self.freed_total = 0
        self.flits = FlitPool(self)

    # ------------------------------------------------------------------
    # Capacity management.
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Records currently backed by the parallel arrays."""
        return len(self.pid)

    @property
    def live_count(self) -> int:
        """Handles allocated and not yet freed."""
        return self.allocated_total - self.freed_total

    def _grow(self) -> None:
        chunk = max(_GROWTH_CHUNK, self.capacity)
        start = self.capacity
        self.pid.extend([0] * chunk)
        self.src_endpoint.extend([0] * chunk)
        self.dst_endpoint.extend([0] * chunk)
        self.src_switch.extend([0] * chunk)
        self.dst_switch.extend([0] * chunk)
        self.length_flits.extend([0] * chunk)
        self.generation_cycle.extend([0] * chunk)
        self.injection_cycle.extend([None] * chunk)
        self.ejection_cycle.extend([None] * chunk)
        self.head_hop.extend([0] * chunk)
        self.energy_pj.extend([0.0] * chunk)
        self.flits_ejected.extend([0] * chunk)
        self.is_memory_access.extend([False] * chunk)
        self.is_reply.extend([False] * chunk)
        self.measured.extend([False] * chunk)
        self.route.extend([None] * chunk)
        self.route_ports.extend([None] * chunk)
        self.traffic_class.extend([""] * chunk)
        # Freshly grown handles join the free list in descending order so
        # allocation hands them out ascending (LIFO pop from the end).
        self.free_list.extend(range(start + chunk - 1, start - 1, -1))

    # ------------------------------------------------------------------
    # Handle lifecycle.
    # ------------------------------------------------------------------

    def alloc(
        self,
        pid: int,
        src_endpoint: int,
        dst_endpoint: int,
        src_switch: int,
        dst_switch: int,
        length_flits: int,
        generation_cycle: int,
        route: List[int],
        is_memory_access: bool,
        is_reply: bool,
        measured: bool,
        traffic_class: str,
    ) -> int:
        """Claim a handle and fill its record; returns the handle."""
        if not 0 < length_flits <= MAX_PACKET_LENGTH_FLITS:
            raise ValueError(
                f"length_flits must be in [1, {MAX_PACKET_LENGTH_FLITS}], "
                f"got {length_flits}"
            )
        if not route or route[0] != src_switch or route[-1] != dst_switch:
            raise ValueError(
                "route must start at src_switch and end at dst_switch; "
                f"got route={route!r}, src={src_switch}, dst={dst_switch}"
            )
        if not self.free_list:
            self._grow()
        handle = self.free_list.pop()
        self.pid[handle] = pid
        self.src_endpoint[handle] = src_endpoint
        self.dst_endpoint[handle] = dst_endpoint
        self.src_switch[handle] = src_switch
        self.dst_switch[handle] = dst_switch
        self.length_flits[handle] = length_flits
        self.generation_cycle[handle] = generation_cycle
        self.injection_cycle[handle] = None
        self.ejection_cycle[handle] = None
        self.route[handle] = route
        self.route_ports[handle] = None
        self.head_hop[handle] = 0
        self.energy_pj[handle] = 0.0
        self.flits_ejected[handle] = 0
        self.is_memory_access[handle] = is_memory_access
        self.is_reply[handle] = is_reply
        self.measured[handle] = measured
        self.traffic_class[handle] = traffic_class
        self.allocated_total += 1
        return handle

    def free(self, handle: int) -> None:
        """Return a handle to the pool (tail ejected, or packet purged)."""
        # Drop the only per-record object references so the route lists
        # do not outlive the packet.
        self.route[handle] = None
        self.route_ports[handle] = None
        self.free_list.append(handle)
        self.freed_total += 1

    def live_handles(self) -> Iterator[int]:
        """All currently allocated handles (test/diagnostic use only)."""
        free = set(self.free_list)
        return (h for h in range(self.capacity) if h not in free)

    def view(self, handle: int) -> "PacketView":
        """A legacy-shaped read view of one pooled packet record."""
        return PacketView(self, handle)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PacketPool(capacity={self.capacity}, live={self.live_count}, "
            f"allocated={self.allocated_total}, freed={self.freed_total})"
        )


class PacketView:
    """Thin object view of one pooled packet record.

    Mirrors the :class:`~repro.noc.packet.Packet` attribute surface so the
    boundary consumers — traffic-model delivery callbacks, fault-injection
    reports, tests — keep reading ``packet.dst_endpoint`` etc. while the
    data lives in the pool's parallel arrays.  Views are only valid while
    their handle is live; holding one past the packet's ejection observes
    whatever packet recycles the handle next, so boundary code must not
    retain views across cycles.  Route-based accessors (``route``,
    ``hop_count``, ``next_switch_after``) do fail fast on a freed handle —
    :meth:`PacketPool.free` nulls the route — but scalar fields cannot
    distinguish a recycled record, hence the no-retention contract.
    """

    __slots__ = ("pool", "handle")

    def __init__(self, pool: PacketPool, handle: int) -> None:
        self.pool = pool
        self.handle = handle

    @property
    def packet_id(self) -> int:
        return self.pool.pid[self.handle]

    @property
    def src_endpoint(self) -> int:
        return self.pool.src_endpoint[self.handle]

    @property
    def dst_endpoint(self) -> int:
        return self.pool.dst_endpoint[self.handle]

    @property
    def src_switch(self) -> int:
        return self.pool.src_switch[self.handle]

    @property
    def dst_switch(self) -> int:
        return self.pool.dst_switch[self.handle]

    @property
    def length_flits(self) -> int:
        return self.pool.length_flits[self.handle]

    @property
    def generation_cycle(self) -> int:
        return self.pool.generation_cycle[self.handle]

    @property
    def injection_cycle(self) -> Optional[int]:
        return self.pool.injection_cycle[self.handle]

    @property
    def ejection_cycle(self) -> Optional[int]:
        return self.pool.ejection_cycle[self.handle]

    @property
    def route(self) -> List[int]:
        return self.pool.route[self.handle]

    @property
    def head_hop(self) -> int:
        return self.pool.head_hop[self.handle]

    @property
    def energy_pj(self) -> float:
        return self.pool.energy_pj[self.handle]

    @property
    def flits_ejected(self) -> int:
        return self.pool.flits_ejected[self.handle]

    @property
    def is_memory_access(self) -> bool:
        return self.pool.is_memory_access[self.handle]

    @property
    def is_reply(self) -> bool:
        return self.pool.is_reply[self.handle]

    @property
    def measured(self) -> bool:
        return self.pool.measured[self.handle]

    @property
    def traffic_class(self) -> str:
        return self.pool.traffic_class[self.handle]

    # Legacy helpers mirrored from Packet.

    def add_energy(self, energy_pj: float) -> None:
        """Attribute dynamic energy to this packet."""
        self.pool.energy_pj[self.handle] += energy_pj

    @property
    def delivered(self) -> bool:
        """Whether the tail flit has been ejected at the destination."""
        return self.ejection_cycle is not None

    @property
    def latency_cycles(self) -> Optional[int]:
        """Source-queue-to-ejection latency, or ``None`` if not delivered."""
        ejection = self.ejection_cycle
        if ejection is None:
            return None
        return ejection - self.generation_cycle

    @property
    def network_latency_cycles(self) -> Optional[int]:
        """Injection-to-ejection latency (excludes source queueing)."""
        ejection = self.ejection_cycle
        injection = self.injection_cycle
        if ejection is None or injection is None:
            return None
        return ejection - injection

    @property
    def hop_count(self) -> int:
        """Number of link traversals on the packet's route."""
        return len(self.pool.route[self.handle]) - 1

    def next_switch_after(self, switch_id: int) -> int:
        """The switch following ``switch_id`` on this packet's route."""
        route = self.pool.route[self.handle]
        try:
            index = route.index(switch_id)
        except ValueError:
            raise ValueError(
                f"switch {switch_id} is not on the route of packet "
                f"{self.packet_id}"
            ) from None
        if index + 1 >= len(route):
            raise ValueError(f"packet {self.packet_id} terminates at switch {switch_id}")
        return route[index + 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PacketView(id={self.packet_id}, "
            f"{self.src_endpoint}->{self.dst_endpoint}, "
            f"len={self.length_flits}, handle={self.handle})"
        )
