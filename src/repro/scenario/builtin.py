"""Built-in scenario documents for the paper's figure experiments.

Each ``figN`` generator returns the *raw document* (a plain dict, exactly
what a YAML/JSON file would parse to) describing that figure's workload at
a given fidelity.  Its signature is the one declaration of the figure's
workload knobs and their defaults: :func:`builtin_scenario` passes its
keyword arguments straight through, and the experiments CLI reads the
signature to learn which of ``--pattern``, ``--faults``/``--fault-rate``
and ``--mac`` the figure takes.  These documents are the only home of the
figures' workloads: ``python -m repro.experiments figN`` runs exactly the
document ``--scenario figN`` runs, through
:func:`repro.scenario.compiler.run_scenario`, and each figure's ``fold``
reads the results back, so both forms print the same table from the same
cache keys.  The dict form keeps the documents copyable straight into
``examples/`` files.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import Architecture
from ..faults.scenarios import DEFAULT_FAULT_RATE, DEFAULT_SCENARIO
from .fidelity import architectures_for_comparison
from .spec import ScenarioError, ScenarioSpec, parse_scenario

__all__ = ["BUILTIN_SCENARIOS", "builtin_scenario", "builtin_scenario_names"]


def _fault_section(faults: str, fault_rate: Optional[float]) -> Dict[str, object]:
    """fig2-fig4's fault section: pristine, or one rate (``DEFAULT_FAULT_RATE`` if unpinned)."""
    if faults == "none":
        return {"scenario": "none", "rates": [0.0]}
    rate = DEFAULT_FAULT_RATE if fault_rate is None else fault_rate
    return {"scenario": faults, "rates": [rate]}


def _comparison_systems() -> List[Dict[str, object]]:
    return [{"architecture": a.value} for a in architectures_for_comparison()]


def fig2(
    fidelity: str = "default",
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: Optional[float] = None,
    mac: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 2 — saturation bandwidth and packet energy, three architectures."""
    return {
        "name": "fig2",
        "description": "peak bandwidth/core and packet energy, uniform traffic, 4C4M",
        "fidelity": fidelity,
        "systems": _comparison_systems(),
        "traffic": {
            "kind": "synthetic",
            "pattern": pattern,
            "memory_fractions": [0.2],
            "loads": "fidelity",
        },
        "macs": [mac or ""],
        "faults": _fault_section(faults, fault_rate),
    }


def fig3(
    fidelity: str = "default",
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: Optional[float] = None,
    mac: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 3 — latency versus injection load (same sweep grid as fig2)."""
    raw = fig2(fidelity, pattern=pattern, faults=faults, fault_rate=fault_rate, mac=mac)
    raw["name"] = "fig3"
    raw["description"] = "average packet latency vs injection load, 4C4M"
    return raw


def fig4(
    fidelity: str = "default",
    pattern: str = "uniform",
    faults: str = "none",
    fault_rate: Optional[float] = None,
    mac: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 4 — disintegration study: 1C4M/4C4M/8C4M, interposer vs wireless."""
    systems = [
        {"preset": preset, "architecture": architecture.value}
        for preset in ("1C4M", "4C4M", "8C4M")
        for architecture in (Architecture.INTERPOSER, Architecture.WIRELESS)
    ]
    return {
        "name": "fig4",
        "description": "wireless vs interposer gains under disintegration",
        "fidelity": fidelity,
        "systems": systems,
        "traffic": {
            "kind": "synthetic",
            "pattern": pattern,
            "memory_fractions": [0.2],
            "loads": "fidelity",
        },
        "macs": [mac or ""],
        "faults": _fault_section(faults, fault_rate),
    }


def fig5(fidelity: str = "default") -> Dict[str, object]:
    """Fig. 5 — gains while sweeping the memory-access proportion."""
    return {
        "name": "fig5",
        "description": "wireless vs interposer gains vs memory-access proportion, 4C4M",
        "fidelity": fidelity,
        "systems": [
            {"architecture": a.value}
            for a in (Architecture.INTERPOSER, Architecture.WIRELESS)
        ],
        "traffic": {
            "kind": "synthetic",
            "pattern": "uniform",
            "memory_fractions": [0.2, 0.4, 0.6, 0.8],
            "loads": "fidelity",
        },
    }


def fig6(fidelity: str = "default") -> Dict[str, object]:
    """Fig. 6 — application (SynFull-substitute) traffic gains."""
    return {
        "name": "fig6",
        "description": "wireless vs interposer gains with application traffic, 4C4M",
        "fidelity": fidelity,
        "systems": [
            {"architecture": a.value}
            for a in (Architecture.INTERPOSER, Architecture.WIRELESS)
        ],
        "traffic": {
            "kind": "application",
            "applications": "fidelity",
            "rate_scale": "fidelity",
        },
    }


def fig7(
    fidelity: str = "default",
    pattern: str = "uniform",
    faults: str = DEFAULT_SCENARIO,
    fault_rate: Optional[float] = None,
) -> Dict[str, object]:
    """Fig. 7 — resilience sweep over fault severity, three architectures."""
    scenario = DEFAULT_SCENARIO if faults in (None, "none") else faults
    fault_section: Dict[str, object] = {"scenario": scenario}
    if fault_rate is not None:
        fault_section["rate"] = fault_rate
    else:
        fault_section["rates"] = "fidelity"
    return {
        "name": "fig7",
        "description": "throughput/latency/energy degradation vs fault rate",
        "fidelity": fidelity,
        "systems": [
            {"label": "mesh", "architecture": "substrate", "num_chips": 1, "cores_per_chip": 64},
            {"label": "interposer", "preset": "4C4M", "architecture": "interposer"},
            # 1 WI per 8 cores puts two WIs on every chip, so a transceiver
            # loss has an in-chip wireless fallback.  At the paper's 1 per 16
            # every WI is an articulation point and hub-transceiver-loss has
            # nothing safe to kill.
            {"label": "wireless", "preset": "4C4M", "architecture": "wireless", "cores_per_wi": 8},
        ],
        "traffic": {
            "kind": "synthetic",
            "pattern": pattern,
            "memory_fractions": [0.2],
            # About half the mesh baseline's saturation load, so faults show
            # up as lost throughput, latency and energy rather than being
            # drowned out by a saturated network.
            "loads": [0.001],
        },
        "faults": fault_section,
    }


def fig8(
    fidelity: str = "default",
    pattern: str = "uniform",
    mac: Optional[str] = None,
) -> Dict[str, object]:
    """Fig. 8 — MAC × channel count × load study on the wireless systems."""
    return {
        "name": "fig8",
        "description": "MAC protocol study across channel counts and loads",
        "fidelity": fidelity,
        "systems": [
            {"preset": "4C4M", "architecture": "wireless"},
            {"preset": "8C4M", "architecture": "wireless"},
        ],
        "traffic": {
            "kind": "synthetic",
            "pattern": pattern,
            "memory_fractions": [0.2],
            "loads": "saturation-study",
        },
        "macs": [mac] if mac else "all",
        "channels": "fidelity",
    }


#: Scenario name -> raw-document generator, in figure order.
BUILTIN_SCENARIOS = {
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
}


def builtin_scenario_names() -> List[str]:
    """All built-in scenario names, in figure order."""
    return list(BUILTIN_SCENARIOS)


def builtin_scenario(name: str, fidelity: str = "default", **kwargs) -> ScenarioSpec:
    """Build and validate one built-in figure scenario by name."""
    try:
        generator = BUILTIN_SCENARIOS[name]
    except KeyError:
        known = ", ".join(BUILTIN_SCENARIOS)
        raise ScenarioError("name", f"unknown built-in scenario {name!r}; known: {known}") from None
    return parse_scenario(generator(fidelity, **kwargs))
