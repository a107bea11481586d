"""The fault model: events, and the plan that schedules them.

A :class:`FaultPlan` is a deterministic, pre-computed list of
:class:`FaultEvent` records — *which* component degrades or dies and *when*
(in simulation cycles).  Plans are built by the named scenario factories in
:mod:`repro.faults.scenarios` from a topology, a fault rate and a derived
seed, so the same (scenario, rate, seed) always produces the same plan on
any host — the same determinism contract the traffic models follow.

Four fault kinds cover the failure modes of the multichip fabrics:

* ``link_down`` — a wired link fails fail-stop: no new packet may enter it,
  and routing is rebuilt around it.
* ``link_degrade`` — a switch port degrades: the link behind it serialises
  flits more slowly and/or adds latency, and adaptive rerouting biases
  paths away from it.
* ``transceiver_down`` — a wireless transceiver dies: its WI can no longer
  transmit or receive, and traffic falls back to the remaining WIs (or
  wired paths where they exist).
* ``channel_degrade`` — the shared wireless channel loses SNR: every
  wireless transmission serialises more slowly and wireless hops become
  less attractive to the router.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class FaultKind(str, Enum):
    """Failure mode of one fault event."""

    LINK_DOWN = "link_down"
    LINK_DEGRADE = "link_degrade"
    TRANSCEIVER_DOWN = "transceiver_down"
    CHANNEL_DEGRADE = "channel_degrade"


class FaultPlanError(ValueError):
    """Raised when a fault event or plan is built inconsistently."""


@dataclass(frozen=True)
class FaultEvent:
    """One fault taking effect at one simulation cycle.

    ``at_cycle`` zero means the fault is present from the start of the run
    (a *static* fault); positive cycles schedule it mid-run.  Which of the
    optional fields must be set depends on ``kind``.
    """

    kind: FaultKind
    at_cycle: int = 0
    #: Failed / degraded link (``link_down`` and ``link_degrade``).
    link_id: Optional[int] = None
    #: WI switch whose transceiver dies (``transceiver_down``).
    switch_id: Optional[int] = None
    #: Serialisation slow-down: multiplies ``cycles_per_flit`` of the
    #: affected link(s) (``link_degrade`` / ``channel_degrade``).
    bandwidth_factor: int = 1
    #: Extra cycles added to the affected link(s)' traversal latency.
    extra_latency_cycles: int = 0
    #: Multiplier on the affected link(s)' routing cost, so adaptive
    #: rerouting spreads traffic away from degraded components.
    routing_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.at_cycle < 0:
            raise FaultPlanError("at_cycle must be non-negative")
        if self.kind in (FaultKind.LINK_DOWN, FaultKind.LINK_DEGRADE):
            if self.link_id is None:
                raise FaultPlanError(f"{self.kind.value} events need a link_id")
        if self.kind is FaultKind.TRANSCEIVER_DOWN and self.switch_id is None:
            raise FaultPlanError("transceiver_down events need a switch_id")
        if self.bandwidth_factor < 1:
            raise FaultPlanError("bandwidth_factor must be at least 1")
        if self.extra_latency_cycles < 0:
            raise FaultPlanError("extra_latency_cycles must be non-negative")
        if self.routing_penalty < 1.0:
            raise FaultPlanError("routing_penalty must be at least 1.0")
        if self.kind is FaultKind.LINK_DEGRADE and (
            self.bandwidth_factor == 1 and self.extra_latency_cycles == 0
        ):
            raise FaultPlanError("link_degrade events must degrade something")


@dataclass(frozen=True)
class FaultPlan:
    """Every fault of one simulation run, in application order."""

    scenario: str
    fault_rate: float
    seed: int
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise FaultPlanError("fault_rate must be in [0, 1]")

    @property
    def is_empty(self) -> bool:
        """Whether the plan injects no faults at all."""
        return not self.events

    def schedule(self) -> Dict[int, List[FaultEvent]]:
        """Events grouped by application cycle, each group in plan order."""
        grouped: Dict[int, List[FaultEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.at_cycle, []).append(event)
        return grouped
