"""Application traffic profiles (PARSEC / SPLASH-2).

The paper drives its Fig. 6 evaluation with SynFull [20] traffic models of
PARSEC and SPLASH-2 applications running on a 16-core MOESI CMP.  SynFull is
itself a *statistical* model (Markov chains fitted to the applications'
communication behaviour), not a trace replayer, so the reproduction follows
the same idea: each application is characterised by a small set of
parameters — steady-state injection rate, memory-access fraction,
burstiness, request/reply mix and phase structure — chosen to span the
qualitative range of the benchmark suites (compute-bound vs memory-bound,
smooth vs bursty).  See DESIGN.md section 3 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class ApplicationPhase:
    """One execution phase of an application."""

    name: str
    #: Relative duration of the phase (fractions are normalised over phases).
    weight: float
    #: Injection-rate multiplier relative to the application's base rate.
    rate_scale: float
    #: Memory-access fraction during this phase.
    memory_fraction: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be non-negative, got {self.weight}")
        if self.rate_scale < 0:
            raise ValueError(f"rate_scale must be non-negative, got {self.rate_scale}")
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ValueError(
                f"memory_fraction must be in [0, 1], got {self.memory_fraction}"
            )


@dataclass(frozen=True)
class ApplicationProfile:
    """Statistical communication profile of one application."""

    name: str
    suite: str
    #: Steady-state injection rate [packets/core/cycle] at the base phase.
    base_injection_rate: float
    #: Fraction of traffic that targets the DRAM stacks.
    memory_fraction: float
    #: Probability of entering a traffic burst in a given cycle.
    burst_probability: float
    #: Injection-rate multiplier while bursting.
    burst_scale: float
    #: Mean burst duration [cycles].
    burst_duration_cycles: int
    #: Fraction of coherence (core-to-core) traffic that crosses chips when
    #: each chip runs one thread of the application.
    cross_thread_fraction: float
    #: Fraction of memory accesses that are reads (generate reply data).
    read_fraction: float
    #: Request packet length [flits] (coherence control messages are short).
    request_length_flits: int
    #: Data/reply packet length [flits] (cache lines).
    data_length_flits: int
    phases: Tuple[ApplicationPhase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.base_injection_rate < 0:
            raise ValueError("base_injection_rate must be non-negative")
        if not 0.0 <= self.memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be in [0, 1]")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        if self.burst_scale < 1.0:
            raise ValueError("burst_scale must be at least 1")
        if self.burst_duration_cycles <= 0:
            raise ValueError("burst_duration_cycles must be positive")
        if not 0.0 <= self.cross_thread_fraction <= 1.0:
            raise ValueError("cross_thread_fraction must be in [0, 1]")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.request_length_flits <= 0 or self.data_length_flits <= 0:
            raise ValueError("packet lengths must be positive")

    @property
    def effective_phases(self) -> Tuple[ApplicationPhase, ...]:
        """Phases of the application (a single implicit phase if none given)."""
        if self.phases:
            return self.phases
        return (
            ApplicationPhase(
                name="steady",
                weight=1.0,
                rate_scale=1.0,
                memory_fraction=self.memory_fraction,
            ),
        )


def _profile(
    name: str,
    suite: str,
    rate: float,
    memory: float,
    burst_p: float,
    burst_scale: float,
    burst_len: int,
    cross: float,
    read: float,
    phases: Tuple[ApplicationPhase, ...] = (),
) -> ApplicationProfile:
    return ApplicationProfile(
        name=name,
        suite=suite,
        base_injection_rate=rate,
        memory_fraction=memory,
        burst_probability=burst_p,
        burst_scale=burst_scale,
        burst_duration_cycles=burst_len,
        cross_thread_fraction=cross,
        read_fraction=read,
        request_length_flits=8,
        data_length_flits=64,
        phases=phases,
    )


#: Built-in application profiles.  The rates/fractions are synthetic
#: SynFull substitutes calibrated to the well-known qualitative behaviour of
#: the benchmarks (e.g. canneal and radix are memory-bound and bursty,
#: blackscholes and water are compute-bound with light traffic).
APPLICATION_PROFILES: Dict[str, ApplicationProfile] = {
    profile.name: profile
    for profile in (
        _profile("blackscholes", "PARSEC", 0.0025, 0.30, 0.02, 2.0, 20, 0.35, 0.7),
        _profile("bodytrack", "PARSEC", 0.0040, 0.35, 0.05, 2.5, 30, 0.45, 0.7),
        _profile("canneal", "PARSEC", 0.0060, 0.55, 0.10, 3.0, 40, 0.60, 0.8),
        _profile("dedup", "PARSEC", 0.0050, 0.45, 0.08, 2.5, 35, 0.55, 0.7),
        _profile("fluidanimate", "PARSEC", 0.0045, 0.40, 0.06, 2.0, 30, 0.50, 0.7),
        _profile("swaptions", "PARSEC", 0.0020, 0.25, 0.02, 1.8, 20, 0.30, 0.6),
        _profile("fft", "SPLASH-2", 0.0055, 0.50, 0.12, 3.0, 25, 0.65, 0.8),
        _profile("lu", "SPLASH-2", 0.0035, 0.35, 0.04, 2.0, 25, 0.40, 0.7),
        _profile("radix", "SPLASH-2", 0.0065, 0.60, 0.15, 3.5, 30, 0.70, 0.8),
        _profile("water", "SPLASH-2", 0.0022, 0.25, 0.03, 1.8, 20, 0.30, 0.6),
        _profile("barnes", "SPLASH-2", 0.0038, 0.40, 0.06, 2.2, 30, 0.50, 0.7),
    )
}


def get_profile(name: str) -> ApplicationProfile:
    """Look up a built-in application profile by name."""
    try:
        return APPLICATION_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(APPLICATION_PROFILES))
        raise KeyError(f"unknown application {name!r}; known: {known}") from None
