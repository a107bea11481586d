"""Array-backed packet and flit storage: the simulator's only data plane.

A packet is an integer *handle* into :class:`PacketPool`, whose fields
live in preallocated parallel arrays (plain Python lists, grown in chunks).
Handles are recycled through a free list when the tail flit is ejected (or
the packet is purged by fault recovery), so steady-state runs allocate
nothing per packet.  A monotonically increasing ``pid`` array keeps the
globally unique packet id the rest of the system (VC ownership, MAC
grants, statistics) keys on — handles recycle, pids never do, so no
identity can alias across a handle's lifetimes.

A flit is fully determined by *(packet handle, flit index)*, so flits need
no storage at all: a flit is the two fields packed into one integer,
``handle << FLIT_INDEX_BITS | index``.  A flit is the head when its index
is 0 and the tail when its index is ``length_flits[handle] - 1``.  The
same packing makes a VC buffer two integers: a VC holds a run of
consecutive flits of one packet, so it keeps only its front flit and a
count (see :mod:`repro.noc.virtual_channel`), and a pop is ``front + 1`` —
no allocation, no GC pressure, no attribute chases.

Traffic-model delivery callbacks (``on_packet_delivered``) receive a
:class:`PacketView`, a read view of the few fields they react to.

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


class PacketPool:
    """Preallocated parallel arrays of packet records, keyed by handle.

    ``route_ports`` holds each packet's route compiled to the dense per-hop
    output-port table (see
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
        "route",
        "route_ports",
        "head_hop",
        "energy_pj",
        "is_memory_access",
        "is_reply",
        "measured",
        "traffic_class",
        "free_list",
        "allocated_total",
        "freed_total",
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
        self.route: List[Optional[List[int]]] = []
        self.route_ports: List[Optional[list]] = []
        self.head_hop: List[int] = []
        self.energy_pj: List[float] = []
        self.is_memory_access: List[bool] = []
        self.is_reply: List[bool] = []
        self.measured: List[bool] = []
        self.traffic_class: List[str] = []
        #: Recycled handles, most recently freed last (LIFO reuse keeps the
        #: working set of array rows hot).
        self.free_list: List[int] = []
        self.allocated_total = 0
        self.freed_total = 0

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
        self.head_hop.extend([0] * chunk)
        self.energy_pj.extend([0.0] * chunk)
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
        self.route[handle] = route
        self.route_ports[handle] = None
        self.head_hop[handle] = 0
        self.energy_pj[handle] = 0.0
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PacketPool(capacity={self.capacity}, live={self.live_count}, "
            f"allocated={self.allocated_total}, freed={self.freed_total})"
        )




class PacketView:
    """Read view of one pooled packet, handed to delivery callbacks.

    Valid only while its handle is live: the kernel frees the handle right
    after the callback returns, so callbacks must not retain the view.
    """

    __slots__ = ("pool", "handle")

    def __init__(self, pool: PacketPool, handle: int) -> None:
        self.pool = pool
        self.handle = handle

    @property
    def src_endpoint(self) -> int:
        return self.pool.src_endpoint[self.handle]

    @property
    def dst_endpoint(self) -> int:
        return self.pool.dst_endpoint[self.handle]

    @property
    def is_memory_access(self) -> bool:
        return self.pool.is_memory_access[self.handle]

    @property
    def is_reply(self) -> bool:
        return self.pool.is_reply[self.handle]

    @property
    def traffic_class(self) -> str:
        return self.pool.traffic_class[self.handle]
