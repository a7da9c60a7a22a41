"""Thermal interface resistance: bond lines, contact and surface
enhancement.

The total interface resistance the NANOPACK project attacks is

.. math:: R_{TIM} = \\frac{BLT}{k_{TIM}} + R_{c1} + R_{c2}

(all area-specific, K·m²/W internally, K·mm²/W in data sheets): a bulk
term set by the bond-line thickness (BLT) and material conductivity, plus
two boundary contact resistances.  The project's levers are modelled here:

* higher k (filled adhesives — :mod:`avipack.tim.models`);
* thinner BLT: Prasher's scaling of BLT with filler size, viscosity and
  assembly pressure, plus the **hierarchical nested channel (HNC)**
  surface machining that drains excess material (> 20 % thinner bond
  lines in the project's measurements);
* lower contact resistance: nanosponge/nanostructured surface factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import InputError
from ..units import si_to_kmm2_per_w


@dataclass(frozen=True)
class ThermalInterface:
    """One assembled thermal interface.

    Parameters
    ----------
    conductivity:
        Bulk TIM conductivity [W/(m·K)].
    bond_line_thickness:
        Assembled BLT [m].
    contact_resistance:
        Per-side boundary resistance [K·m²/W] (same value both sides).
    area:
        Interface area [m²].
    """

    conductivity: float
    bond_line_thickness: float
    contact_resistance: float
    area: float

    def __post_init__(self) -> None:
        if self.conductivity <= 0.0:
            raise InputError("conductivity must be positive")
        if self.bond_line_thickness <= 0.0:
            raise InputError("bond line thickness must be positive")
        if self.contact_resistance < 0.0:
            raise InputError("contact resistance must be non-negative")
        if self.area <= 0.0:
            raise InputError("area must be positive")

    @property
    def specific_resistance(self) -> float:
        """Area-specific resistance BLT/k + 2·R_c [K·m²/W]."""
        return (self.bond_line_thickness / self.conductivity
                + 2.0 * self.contact_resistance)

    @property
    def specific_resistance_kmm2(self) -> float:
        """Area-specific resistance in data-sheet units [K·mm²/W]."""
        return si_to_kmm2_per_w(self.specific_resistance)

    @property
    def resistance(self) -> float:
        """Absolute resistance [K/W] for network use."""
        return self.specific_resistance / self.area

    def with_hnc_surface(self, blt_reduction: float = 0.22
                         ) -> "ThermalInterface":
        """Interface re-assembled on an HNC-machined surface.

        The hierarchical nested channels drain excess TIM during assembly,
        reducing the BLT by ``blt_reduction`` (the project demonstrated
        > 20 % for the majority of TIMs on cm² interfaces).
        """
        if not 0.0 < blt_reduction < 1.0:
            raise InputError("BLT reduction must be in (0, 1)")
        return replace(self, bond_line_thickness=self.bond_line_thickness
                       * (1.0 - blt_reduction))

    def with_nanosponge_contacts(self, contact_reduction: float = 0.5
                                 ) -> "ThermalInterface":
        """Interface with gold-nanosponge-enhanced boundary contacts.

        The compliant nanosponge conforms to asperities, cutting the
        boundary resistance by ``contact_reduction``.
        """
        if not 0.0 < contact_reduction < 1.0:
            raise InputError("contact reduction must be in (0, 1)")
        return replace(self, contact_resistance=self.contact_resistance
                       * (1.0 - contact_reduction))


def bond_line_thickness(filler_diameter: float, viscosity: float,
                        pressure: float,
                        empirical_coefficient: float = 0.1) -> float:
    """Prasher's bond-line-thickness scaling [m].

    BLT = 1.31·d_f + c·(µ/P)^0.166 — the particle-size floor plus a
    squeeze-flow term falling weakly with assembly pressure.  ``viscosity``
    in Pa·s, ``pressure`` in Pa.
    """
    if filler_diameter <= 0.0:
        raise InputError("filler diameter must be positive")
    if viscosity <= 0.0 or pressure <= 0.0:
        raise InputError("viscosity and pressure must be positive")
    if empirical_coefficient <= 0.0:
        raise InputError("coefficient must be positive")
    squeeze = empirical_coefficient * (viscosity / pressure) ** 0.166
    return 1.31 * filler_diameter + squeeze * 1e-4


def meets_nanopack_target(interface: ThermalInterface,
                          target_kmm2: float = 5.0,
                          max_blt: float = 20.0e-6) -> bool:
    """Check an interface against the NANOPACK objective.

    The project targets a specific resistance below 5 K·mm²/W with a bond
    line under 20 µm.
    """
    if target_kmm2 <= 0.0 or max_blt <= 0.0:
        raise InputError("targets must be positive")
    return (interface.specific_resistance_kmm2 <= target_kmm2
            and interface.bond_line_thickness <= max_blt)
