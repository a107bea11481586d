"""Length-dependent model of intra-chip and interposer wireline links.

The paper obtains the delay and energy of each intra-chip link through
Cadence simulations "considering the specific lengths of each link based on
the mesh topology in each die".  This module provides the analytical
substitute: given a physical link length, it returns the per-flit energy and
the number of clock cycles the traversal takes, using the 65 nm constants in
:mod:`repro.energy.technology`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .technology import DEFAULT_TECHNOLOGY, Technology


@dataclass(frozen=True)
class WireCharacteristics:
    """Per-flit delay and energy of a wireline segment."""

    length_mm: float
    energy_pj_per_flit: float
    latency_cycles: int

    @property
    def energy_pj_per_bit(self) -> float:
        """Energy per bit implied by the per-flit figure."""
        return self.energy_pj_per_flit / DEFAULT_TECHNOLOGY.flit_width_bits


class WireModel:
    """Analytical delay/energy model for repeated global wires.

    Parameters
    ----------
    technology:
        Technology constants to use.  Defaults to the 65 nm node of the paper.
    """

    def __init__(self, technology: Technology = DEFAULT_TECHNOLOGY) -> None:
        self._technology = technology

    @property
    def technology(self) -> Technology:
        """The technology constants this model evaluates against."""
        return self._technology

    def characterize(self, length_mm: float) -> WireCharacteristics:
        """Characterise a wire segment of the given physical length.

        Raises
        ------
        ValueError
            If the length is negative.
        """
        if length_mm < 0:
            raise ValueError(f"length_mm must be non-negative, got {length_mm}")
        energy = self._technology.wire_energy_pj_per_flit(length_mm)
        latency = self._technology.wire_delay_cycles(length_mm) if length_mm > 0 else 1
        return WireCharacteristics(
            length_mm=length_mm,
            energy_pj_per_flit=energy,
            latency_cycles=latency,
        )
