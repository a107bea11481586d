"""Host-speed probe: a fixed piece of pure-Python work, timed.

The benchmark runs on a few cores of a shared host whose speed changes
by tens of percent, at times twofold, in bursts of a fraction of a second
and in episodes of minutes.  The guest cannot see it: CPU time tracks wall
time and no steal time is reported.  So every timed stretch is bracketed
by probes, and :func:`scaled` converts it to *reference seconds*, the time
it would have taken at the host speed where :data:`REFERENCE_S` was
measured:

    stretch_s * (REFERENCE_S / mean(probe before, probe after)) ** SENSITIVITY

The probe does what the simulator does most (attribute reads and writes
on small objects, dict lookups keyed by tuples, list and deque traffic,
small function calls).  It imports nothing of the program, and it runs
with the cyclic garbage collector off, whose passes would otherwise walk
the program's heap; so no change to the program moves it.
"""

from __future__ import annotations

import gc
from collections import deque
from time import perf_counter
from typing import Sequence

#: Median probe time on the reference host (2 vCPUs, Python 3.11) when it is
#: quiet.  Changing it rescales every reported time, so only a
#: benchmark-only change may.
REFERENCE_S = 0.036

#: How the program's time follows the probe's.  In the slow episodes
#: measured on the reference host the probe took up to twice as long while
#: the workloads took the probe's factor to the power 0.7 to 0.85, because
#: contention slows the probe's tight loop more than the program.
SENSITIVITY = 0.8

_NODES = 64
_CYCLES = 2400
_INJECT = 4  # tokens injected per cycle


class _Port:
    __slots__ = ("queue", "credits", "sent")

    def __init__(self) -> None:
        self.queue: deque = deque()
        self.credits = 4
        self.sent = 0


def _next_hop(node: int, target: int) -> int:
    return node + 1 if node < target else node - 1


def _work() -> int:
    """A small cycle loop moving tokens between ports; returns a checksum."""
    ports = [_Port() for _ in range(_NODES)]
    routes = {}
    delivered = 0
    for cycle in range(_CYCLES):
        for lane in range(_INJECT):
            source = (cycle * 37 + lane * 13) % _NODES
            target = (cycle * 11 + lane * 29 + 5) % _NODES
            ports[source].queue.append((target, cycle))
        for node, port in enumerate(ports):
            if not port.queue or port.credits == 0:
                port.credits = min(port.credits + 1, 4)
                continue
            target, born = port.queue.popleft()
            if target == node:
                delivered += cycle - born
                continue
            key = (node, target)
            hop = routes.get(key)
            if hop is None:
                hop = routes[key] = _next_hop(node, target)
            port.credits -= 1
            port.sent += 1
            ports[hop].queue.append((target, born))
    return delivered + sum(port.sent for port in ports)


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _work()
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def scaled(seconds: float, probes: Sequence[float]) -> float:
    """``seconds`` measured between ``probes``, in reference seconds."""
    return seconds * (REFERENCE_S * len(probes) / sum(probes)) ** SENSITIVITY
