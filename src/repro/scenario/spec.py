"""The declarative scenario specification and its schema validator.

A *scenario* is one YAML/JSON document describing a whole experiment —
which systems to build, what traffic to offer, which MAC protocols,
channel plans and fault plans to apply, and at what fidelity — in terms of
the names held by the four runtime registries (traffic patterns,
architectures, MAC protocols, fault scenarios).  The document is validated
into a :class:`ScenarioSpec` here and resolved into concrete
:class:`~repro.parallel.runner.SimulationTask` lists by
:mod:`repro.scenario.compiler`.

Design rules:

* **Field-path errors.**  Every way a document can be malformed raises
  :class:`ScenarioError` carrying the dotted path of the offending field
  (``systems[1].wireless.mac``), never a bare ``KeyError``/``TypeError``
  from deep inside the loader.
* **Registry names, not structures.**  The spec references patterns,
  architectures, MACs, applications and fault scenarios purely by
  registered name, so anything pluggable through a registry is reachable
  from a document with no schema change.
* **The config classes are the schema.**  A system entry and its
  ``network``/``wireless`` sections take exactly the scalar fields of
  :class:`~repro.core.config.SystemConfig`,
  :class:`~repro.noc.config.NetworkConfig` and
  :class:`~repro.noc.config.WirelessConfig`, each checked against its
  annotation (``int``, ``float``, which also takes an integer, ``bool``
  or ``str``), with ``null`` only where the annotation is ``Optional``.
  A scalar field added to a config class is a document key at once.
* **Stable round-trips.**  ``parse(spec.to_dict()) == spec`` for every
  valid spec, so documents can be normalised, stored and re-loaded
  without drift (the fuzzer and the CI artifact dump rely on this).

YAML support is optional: ``.json`` documents load through the standard
library; ``.yaml`` documents need PyYAML and fail with a clear message —
not an ``ImportError`` traceback — when it is absent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import partial
from typing import (
    Callable,
    Collection,
    Dict,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_type_hints,
)

from ..core.config import Architecture, SystemConfig
from ..noc.config import NetworkConfig, WirelessConfig
from ..faults.scenarios import available_fault_scenarios
from ..traffic.applications import APPLICATION_PROFILES
from ..traffic.registry import available_patterns
from ..wireless.mac.registry import available_macs
from .fidelity import FIDELITIES

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "SystemSpec",
    "TrafficSpec",
    "FaultSpec",
    "parse_scenario",
    "load_scenario",
    "loads_scenario",
    "dump_scenario",
]

#: Sentinel values a spec may use instead of explicit grids: ``"fidelity"``
#: resolves to the fidelity level's own grid (load points, applications,
#: fault rates or channel counts); ``"saturation-study"`` picks the fig8
#: low/mid/high subset of the fidelity's load grid.
FIDELITY_SENTINEL = "fidelity"
STUDY_SENTINEL = "saturation-study"

#: System presets resolvable by name (the paper's ``XCYM`` configurations).
SYSTEM_PRESETS = ("1C4M", "4C4M", "8C4M")


class ScenarioError(ValueError):
    """A scenario document failed validation.

    ``path`` is the dotted location of the offending field
    (``"traffic.pattern"``, ``"systems[2].wireless.mac"``; ``""`` for
    document-level problems) and ``reason`` the human-readable cause; the
    exception string always leads with the path so CLI users and the CI
    artifact dump can point at the exact field.
    """

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}" if path else reason)


# ----------------------------------------------------------------------
# Typed validation helpers (never let a bare KeyError/TypeError escape).
# ----------------------------------------------------------------------


def _type_name(value: object) -> str:
    return type(value).__name__


def _expect_mapping(value: object, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {_type_name(value)}")
    for key in value:
        if not isinstance(key, str):
            raise ScenarioError(path, f"mapping keys must be strings, got {key!r}")
    return value


def _expect_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {_type_name(value)}")
    return value


def _expect_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected a boolean, got {_type_name(value)}")
    return value


def _expect_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {_type_name(value)}")
    return value


def _expect_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {_type_name(value)}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(path, f"expected a finite number, got {value}")
    return value


def _reject_unknown_keys(raw: Mapping, allowed: Collection[str], path: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{path}.{unknown[0]}" if path else unknown[0],
            f"unknown field (known fields: {', '.join(sorted(allowed))})",
        )


def _expect_registry_name(value: object, path: str, known: Sequence[str], what: str) -> str:
    name = _expect_str(value, path)
    if name not in known:
        raise ScenarioError(
            path, f"unknown {what} {name!r} (registered: {', '.join(known)})"
        )
    return name


def _expect_mac(value: object, path: str) -> str:
    return _expect_registry_name(value, path, available_macs(), "MAC protocol")


def _at_least(minimum: int, value, path: str):
    if value < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {value}")
    return value


def _expect_fraction(value: object, path: str) -> float:
    value = _expect_float(value, path)
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(path, f"must be in [0, 1], got {value}")
    return value


_Check = Callable[[object, str], object]


def _parse_grid(
    raw: object, path: str, item: str, check: _Check, sentinels: Sequence[str] = ()
) -> Union[str, List[object]]:
    """One of ``sentinels``, or a non-empty list of ``item``s each passing ``check``."""
    if isinstance(raw, str) and raw in sentinels:
        return raw
    if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
        accepted = " or ".join(["a list", *map(repr, sentinels)])
        got = repr(raw) if isinstance(raw, str) else _type_name(raw)
        raise ScenarioError(path, f"expected {accepted}, got {got}")
    if not raw:
        raise ScenarioError(path, f"needs at least one {item}")
    return [check(entry, f"{path}[{index}]") for index, entry in enumerate(raw)]


# ----------------------------------------------------------------------
# The config classes as the schema of a system entry.
# ----------------------------------------------------------------------

#: The validator of each scalar annotation, matched exactly: ``Architecture``
#: is a ``str`` enum, not ``str``, so it and the nested config sections are
#: structural fields that no table has to name.
_CHECKS: Dict[type, _Check] = {
    int: _expect_int,
    float: _expect_float,
    bool: _expect_bool,
    str: _expect_str,
}


def _nullable(check: _Check) -> _Check:
    return lambda value, path: None if value is None else check(value, path)


def _scalar_fields(config: type) -> Dict[str, _Check]:
    """``config``'s scalar fields in declaration order, each with its validator.

    ``Optional[X]`` takes ``X``'s validator plus ``null``; any other
    annotation without a validator marks a structural field, which is left
    out.
    """
    hints = get_type_hints(config)
    checks: Dict[str, _Check] = {}
    for item in fields(config):
        hint = hints[item.name]
        args = get_args(hint)
        if len(args) == 2 and type(None) in args:
            (inner,) = (arg for arg in args if arg is not type(None))
            if inner in _CHECKS:
                checks[item.name] = _nullable(_CHECKS[inner])
        elif hint in _CHECKS:
            checks[item.name] = _CHECKS[hint]
    return checks


#: The document keys of a system entry, and of its ``network`` and
#: ``wireless`` sections, with their validators.  ``wireless.mac`` is the
#: one ``str`` field; it must name a registered MAC protocol.
_SYSTEM_FIELDS = _scalar_fields(SystemConfig)
_NETWORK_FIELDS = _scalar_fields(NetworkConfig)
_WIRELESS_FIELDS = {**_scalar_fields(WirelessConfig), "mac": _expect_mac}


def _parse_fields(mapping: Mapping, checks: Mapping[str, _Check], path: str) -> Dict[str, object]:
    return {
        key: check(mapping[key], f"{path}.{key}") for key, check in checks.items() if key in mapping
    }


def _parse_section(raw: object, checks: Mapping[str, _Check], path: str) -> Dict[str, object]:
    mapping = _expect_mapping(raw, path)
    _reject_unknown_keys(mapping, checks, path)
    return _parse_fields(mapping, checks, path)


# ----------------------------------------------------------------------
# Spec sections.
# ----------------------------------------------------------------------


@dataclass
class SystemSpec:
    """One system entry: an architecture plus configuration overrides."""

    architecture: str
    preset: str = ""
    label: str = ""
    #: ``SystemConfig`` scalar overrides; ``network`` and ``wireless`` hold
    #: the ``NetworkConfig`` and ``WirelessConfig`` ones.
    overrides: Dict[str, object] = field(default_factory=dict)
    network: Dict[str, object] = field(default_factory=dict)
    wireless: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        raw: Dict[str, object] = {"architecture": self.architecture}
        if self.preset:
            raw["preset"] = self.preset
        if self.label:
            raw["label"] = self.label
        raw.update({k: self.overrides[k] for k in sorted(self.overrides)})
        if self.network:
            raw["network"] = {k: self.network[k] for k in sorted(self.network)}
        if self.wireless:
            raw["wireless"] = {k: self.wireless[k] for k in sorted(self.wireless)}
        return raw


@dataclass
class TrafficSpec:
    """The workload section: synthetic pattern sweeps or application runs."""

    kind: str = "synthetic"
    pattern: str = "uniform"
    memory_fractions: List[float] = field(default_factory=lambda: [0.2])
    #: ``"fidelity"`` (the level's grid), ``"saturation-study"`` (fig8's
    #: low/mid/high subset) or an explicit list of offered loads.
    loads: Union[str, List[float]] = FIDELITY_SENTINEL
    #: ``"fidelity"`` or an explicit list of application names.
    applications: Union[str, List[str]] = FIDELITY_SENTINEL
    #: ``"fidelity"`` (the level's ``application_rate_scale``) or a float.
    rate_scale: Union[str, float] = FIDELITY_SENTINEL

    def to_dict(self) -> Dict[str, object]:
        raw: Dict[str, object] = {"kind": self.kind}
        if self.kind == "synthetic":
            raw["pattern"] = self.pattern
            raw["memory_fractions"] = list(self.memory_fractions)
            raw["loads"] = self.loads if isinstance(self.loads, str) else list(self.loads)
        else:
            raw["applications"] = (
                self.applications
                if isinstance(self.applications, str)
                else list(self.applications)
            )
            raw["rate_scale"] = self.rate_scale
        return raw


@dataclass
class FaultSpec:
    """The fault-plan section: one registered scenario at swept severities."""

    scenario: str = "none"
    #: ``"fidelity"`` (the level's ``fault_rates`` grid, sorted and
    #: de-duplicated) or an explicit list of severities in [0, 1].  A zero
    #: severity always compiles to the pristine fabric (scenario
    #: ``"none"``), mirroring the fig7 baseline semantics.
    rates: Union[str, List[float]] = field(default_factory=lambda: [0.0])

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "rates": self.rates if isinstance(self.rates, str) else list(self.rates),
        }


@dataclass
class ScenarioSpec:
    """One fully validated scenario document."""

    name: str
    description: str = ""
    fidelity_level: str = "default"
    #: ``cycles`` / ``warmup_cycles`` / ``seed`` overrides on the level.
    fidelity_overrides: Dict[str, int] = field(default_factory=dict)
    systems: List[SystemSpec] = field(default_factory=list)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    #: MAC overrides applied to every task: ``"all"`` sweeps the registry,
    #: a list pins specific protocols (``""`` = keep the system's own MAC).
    macs: Union[str, List[str]] = field(default_factory=lambda: [""])
    #: Channel plan: ``None`` keeps each system's channel count,
    #: ``"fidelity"`` sweeps the level's ``channel_counts`` grid, a list
    #: sweeps explicit counts.
    channels: Union[None, str, List[int]] = None
    faults: FaultSpec = field(default_factory=FaultSpec)

    def fidelity_tag(self) -> str:
        """The report headings' run tag: the level, then each override in key
        order, e.g. ``[fidelity=fast seed=1]``."""
        overrides = "".join(
            f" {key}={self.fidelity_overrides[key]}" for key in sorted(self.fidelity_overrides)
        )
        return f"[fidelity={self.fidelity_level}{overrides}]"

    def to_dict(self) -> Dict[str, object]:
        """The canonical document form (``parse_scenario`` round-trips it)."""
        fidelity: Dict[str, object] = {"level": self.fidelity_level}
        fidelity.update(
            {k: self.fidelity_overrides[k] for k in sorted(self.fidelity_overrides)}
        )
        raw: Dict[str, object] = {"name": self.name}
        if self.description:
            raw["description"] = self.description
        raw["fidelity"] = fidelity
        raw["systems"] = [system.to_dict() for system in self.systems]
        raw["traffic"] = self.traffic.to_dict()
        if self.traffic.kind == "synthetic":
            raw["macs"] = self.macs if isinstance(self.macs, str) else list(self.macs)
        if self.channels is not None:
            raw["channels"] = (
                self.channels if isinstance(self.channels, str) else list(self.channels)
            )
        raw["faults"] = self.faults.to_dict()
        return raw


# ----------------------------------------------------------------------
# Section parsers.
# ----------------------------------------------------------------------


def _expect_level(value: object, path: str) -> str:
    level = _expect_str(value, path)
    if level not in FIDELITIES:
        known = ", ".join(sorted(FIDELITIES))
        raise ScenarioError(path, f"unknown fidelity level {level!r} (known: {known})")
    return level


def _parse_fidelity(raw: object, path: str) -> Tuple[str, Dict[str, int]]:
    if isinstance(raw, str):
        return _expect_level(raw, path), {}
    mapping = _expect_mapping(raw, path)
    _reject_unknown_keys(mapping, ("level", "cycles", "warmup_cycles", "seed"), path)
    level = _expect_level(mapping.get("level", "default"), f"{path}.level")
    overrides = {
        key: _at_least(minimum, _expect_int(mapping[key], f"{path}.{key}"), f"{path}.{key}")
        for key, minimum in (("cycles", 1), ("warmup_cycles", 0), ("seed", 0))
        if key in mapping
    }
    if "cycles" in overrides and overrides.get("warmup_cycles", 0) >= overrides["cycles"]:
        raise ScenarioError(f"{path}.warmup_cycles", "must be smaller than cycles")
    return level, overrides


def _parse_system(raw: object, path: str) -> SystemSpec:
    mapping = _expect_mapping(raw, path)
    allowed = ("architecture", "preset", "label", "network", "wireless", *_SYSTEM_FIELDS)
    _reject_unknown_keys(mapping, allowed, path)
    if "architecture" not in mapping:
        raise ScenarioError(f"{path}.architecture", "required field is missing")
    architecture = _expect_registry_name(
        mapping["architecture"],
        f"{path}.architecture",
        [a.value for a in Architecture],
        "architecture",
    )
    preset = ""
    if "preset" in mapping:
        preset = _expect_str(mapping["preset"], f"{path}.preset")
        if preset not in SYSTEM_PRESETS:
            raise ScenarioError(
                f"{path}.preset",
                f"unknown preset {preset!r} (known: {', '.join(SYSTEM_PRESETS)})",
            )
    label = _expect_str(mapping.get("label", ""), f"{path}.label")
    overrides = _parse_fields(mapping, _SYSTEM_FIELDS, path)
    sections = {
        key: _parse_section(mapping[key], checks, f"{path}.{key}") if key in mapping else {}
        for key, checks in (("network", _NETWORK_FIELDS), ("wireless", _WIRELESS_FIELDS))
    }
    return SystemSpec(
        architecture=architecture, preset=preset, label=label, overrides=overrides, **sections
    )


def _parse_traffic(raw: object, path: str) -> TrafficSpec:
    mapping = _expect_mapping(raw, path)
    kind = _expect_str(mapping.get("kind", "synthetic"), f"{path}.kind")
    if kind not in ("synthetic", "application"):
        raise ScenarioError(
            f"{path}.kind", f"must be 'synthetic' or 'application', got {kind!r}"
        )
    if kind == "synthetic":
        _reject_unknown_keys(
            mapping, ("kind", "pattern", "memory_fractions", "loads"), path
        )
        pattern = "uniform"
        if "pattern" in mapping:
            pattern = _expect_registry_name(
                mapping["pattern"], f"{path}.pattern", available_patterns(), "pattern"
            )
        fractions = [0.2]
        if "memory_fractions" in mapping:
            fractions = _parse_grid(
                mapping["memory_fractions"],
                f"{path}.memory_fractions",
                "fraction",
                _expect_fraction,
            )
        loads = _parse_grid(
            mapping.get("loads", FIDELITY_SENTINEL),
            f"{path}.loads",
            "load point",
            lambda load, at: _at_least(0, _expect_float(load, at), at),
            (FIDELITY_SENTINEL, STUDY_SENTINEL),
        )
        return TrafficSpec(
            kind="synthetic", pattern=pattern, memory_fractions=fractions, loads=loads
        )

    _reject_unknown_keys(mapping, ("kind", "applications", "rate_scale"), path)
    applications = _parse_grid(
        mapping.get("applications", FIDELITY_SENTINEL),
        f"{path}.applications",
        "application",
        partial(_expect_registry_name, known=sorted(APPLICATION_PROFILES), what="application"),
        (FIDELITY_SENTINEL,),
    )
    rate_scale: Union[str, float] = FIDELITY_SENTINEL
    if "rate_scale" in mapping and mapping["rate_scale"] != FIDELITY_SENTINEL:
        rate_scale = _expect_float(mapping["rate_scale"], f"{path}.rate_scale")
        if rate_scale <= 0:
            raise ScenarioError(f"{path}.rate_scale", f"must be > 0, got {rate_scale}")
    return TrafficSpec(kind="application", applications=applications, rate_scale=rate_scale)


def _parse_faults(raw: object, path: str) -> FaultSpec:
    mapping = _expect_mapping(raw, path)
    _reject_unknown_keys(mapping, ("scenario", "rates", "rate"), path)
    scenario = "none"
    if "scenario" in mapping:
        scenario = _expect_registry_name(
            mapping["scenario"],
            f"{path}.scenario",
            available_fault_scenarios(),
            "fault scenario",
        )
    if "rates" in mapping and "rate" in mapping:
        raise ScenarioError(f"{path}.rate", "give either 'rates' or 'rate', not both")
    rates: Union[str, List[float]] = [0.0]
    if "rate" in mapping:
        # The fig7 pinned-rate form: the pristine baseline plus one severity.
        rates = sorted({0.0, _expect_fraction(mapping["rate"], f"{path}.rate")})
    elif "rates" in mapping:
        rates = _parse_grid(
            mapping["rates"], f"{path}.rates", "severity", _expect_fraction, (FIDELITY_SENTINEL,)
        )
    if scenario == "none":
        explicit = rates if isinstance(rates, list) else []
        if rates == FIDELITY_SENTINEL or any(rate > 0 for rate in explicit):
            raise ScenarioError(
                f"{path}.rates",
                "a non-zero severity needs a fault scenario "
                "(e.g. scenario: random-links)",
            )
    return FaultSpec(scenario=scenario, rates=rates)


# ----------------------------------------------------------------------
# Document entry points.
# ----------------------------------------------------------------------

_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "fidelity",
    "systems",
    "traffic",
    "macs",
    "channels",
    "faults",
)


def parse_scenario(raw: object) -> ScenarioSpec:
    """Validate one raw document (a mapping) into a :class:`ScenarioSpec`.

    Raises :class:`ScenarioError` — with the dotted path of the offending
    field — for every malformed, unknown, out-of-range or unregistered
    value.
    """
    mapping = _expect_mapping(raw, "")
    _reject_unknown_keys(mapping, _TOP_LEVEL_KEYS, "")
    if "name" not in mapping:
        raise ScenarioError("name", "required field is missing")
    name = _expect_str(mapping["name"], "name")
    if not name:
        raise ScenarioError("name", "must not be empty")
    description = _expect_str(mapping.get("description", ""), "description")

    level, overrides = _parse_fidelity(mapping.get("fidelity", "default"), "fidelity")

    if "systems" not in mapping:
        raise ScenarioError("systems", "required field is missing")
    systems = _parse_grid(mapping["systems"], "systems", "system", _parse_system)

    if "traffic" not in mapping:
        raise ScenarioError("traffic", "required field is missing")
    traffic = _parse_traffic(mapping["traffic"], "traffic")

    macs: Union[str, List[str]] = [""]
    if "macs" in mapping:
        if traffic.kind == "application":
            raise ScenarioError(
                "macs", "application traffic does not take a MAC override sweep"
            )
        macs = _parse_grid(
            mapping["macs"],
            "macs",
            "entry ('' keeps the system's MAC)",
            lambda name, at: name if name == "" else _expect_mac(name, at),
            ("all",),
        )

    channels = mapping.get("channels")
    if channels is not None:
        channels = _parse_grid(
            channels,
            "channels",
            "channel count",
            lambda count, at: _at_least(1, _expect_int(count, at), at),
            (FIDELITY_SENTINEL,),
        )

    faults = FaultSpec()
    if "faults" in mapping:
        faults = _parse_faults(mapping["faults"], "faults")

    return ScenarioSpec(
        name=name,
        description=description,
        fidelity_level=level,
        fidelity_overrides=overrides,
        systems=systems,
        traffic=traffic,
        macs=macs,
        channels=channels,
        faults=faults,
    )


def _load_yaml(text: str, source: str) -> object:
    try:
        import yaml
    except ImportError:
        raise ScenarioError(
            "",
            f"cannot load YAML scenario {source!r}: PyYAML is not installed "
            "(pip install 'repro-wireless-multichip[scenario]', or use a .json document instead)",
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ScenarioError("", f"invalid YAML in {source!r}: {error}") from None


def loads_scenario(text: str, format: str = "yaml", source: str = "<string>") -> ScenarioSpec:
    """Parse a scenario from document text (``format``: ``yaml`` or ``json``)."""
    if format == "json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError("", f"invalid JSON in {source!r}: {error}") from None
    elif format == "yaml":
        raw = _load_yaml(text, source)
    else:
        raise ScenarioError("", f"unknown scenario format {format!r} (yaml or json)")
    return parse_scenario(raw)


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate one scenario document from a ``.yaml``/``.json`` file."""
    lowered = str(path).lower()
    format = "json" if lowered.endswith(".json") else "yaml"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ScenarioError("", f"cannot read scenario file {path!r}: {error}") from None
    return loads_scenario(text, format=format, source=str(path))


def dump_scenario(spec: ScenarioSpec, format: str = "json") -> str:
    """Serialise a spec back to canonical document text.

    JSON needs only the standard library (this is what the fuzzer's CI
    artifact dump uses); YAML needs PyYAML.
    """
    raw = spec.to_dict()
    if format == "json":
        return json.dumps(raw, indent=2, sort_keys=False) + "\n"
    if format == "yaml":
        try:
            import yaml
        except ImportError:
            raise ScenarioError(
                "",
                "cannot dump YAML: PyYAML is not installed "
                "(pip install 'repro-wireless-multichip[scenario]', or use format='json')",
            ) from None
        return yaml.safe_dump(raw, sort_keys=False)
    raise ScenarioError("", f"unknown scenario format {format!r} (yaml or json)")
