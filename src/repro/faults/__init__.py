"""Fault injection and resilience: degraded fabrics, recovery, scenarios.

This subsystem opens the resilience workload family on top of the
simulation kernel: deterministic fault plans (built by named scenarios from
a topology, rate and seed), a runtime injector that applies them behind the
unified :class:`~repro.noc.fabric.Fabric` interface, and routing recovery
that rebuilds forwarding state around the damage — rerouting in-flight
traffic, falling back from dead wireless transceivers to the remaining
fabric, and reporting partitions with full packet accounting.

Entry points:

* :func:`create_fault_plan` / :func:`available_fault_scenarios` — build a
  plan by scenario name (``none``, ``random-links``,
  ``hub-transceiver-loss``, ``degraded-channel``, ``cascading``).
* :class:`FaultInjector` — executes a plan over one simulation run (the
  simulator wires it in when a non-empty plan is passed).
* :func:`rebuild_routes` / :class:`RecoveryReport` — the recovery analysis
  (partition detection, deadlock-freedom audit), also usable standalone.
"""

from .injector import AUDIT_SWITCH_LIMIT, FaultInjectionError, FaultInjector
from .plan import FaultEvent, FaultKind, FaultPlan, FaultPlanError
from .recovery import RecoveryReport, connected_components, rebuild_routes
from .scenarios import (
    DEFAULT_FAULT_RATE,
    DEFAULT_SCENARIO,
    UnknownScenarioError,
    available_fault_scenarios,
    create_fault_plan,
)

__all__ = [
    "AUDIT_SWITCH_LIMIT",
    "DEFAULT_FAULT_RATE",
    "DEFAULT_SCENARIO",
    "FaultEvent",
    "FaultInjectionError",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "RecoveryReport",
    "UnknownScenarioError",
    "available_fault_scenarios",
    "connected_components",
    "create_fault_plan",
    "rebuild_routes",
]
