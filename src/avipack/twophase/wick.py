"""Capillary wick structures for heat pipes and loop heat pipes.

The wick sets the two numbers that govern capillary devices:

* the **effective pore radius** r_eff, which caps the available capillary
  pressure  Δp_cap,max = 2σ/r_eff;
* the **permeability** K, which sets the liquid-return pressure drop
  through Darcy's law.

Sintered powder wicks (small pores, high Δp_cap — used in LHP primary
wicks) are modelled with their standard correlations (Chi 1976, Faghri
1995), either as a packed bed or with fused (necked) particles.  Each
also supplies an effective saturated thermal conductivity used for the
radial evaporator resistance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError


def _require_fraction(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InputError(f"{name} must lie strictly between 0 and 1")


@dataclass(frozen=True)
class Wick:
    """Base class: a wick with pore radius, permeability and conductivity.

    Attributes
    ----------
    effective_pore_radius:
        Effective capillary pore radius r_eff [m].
    permeability:
        Darcy permeability K [m²].
    porosity:
        Void fraction ε [-].
    conductivity_saturated:
        Effective conductivity of the liquid-saturated wick [W/(m·K)].
    """

    effective_pore_radius: float
    permeability: float
    porosity: float
    conductivity_saturated: float

    def __post_init__(self) -> None:
        if self.effective_pore_radius <= 0.0:
            raise InputError("pore radius must be positive")
        if self.permeability <= 0.0:
            raise InputError("permeability must be positive")
        _require_fraction("porosity", self.porosity)
        if self.conductivity_saturated <= 0.0:
            raise InputError("saturated conductivity must be positive")

    def max_capillary_pressure(self, surface_tension: float) -> float:
        """Maximum capillary pressure 2σ/r_eff [Pa]."""
        if surface_tension <= 0.0:
            raise InputError("surface tension must be positive")
        return 2.0 * surface_tension / self.effective_pore_radius

    def liquid_pressure_drop(self, mass_flow: float, viscosity: float,
                             density: float, length: float,
                             flow_area: float) -> float:
        """Darcy pressure drop of the liquid return path [Pa].

        Δp = µ·L·ṁ / (ρ·K·A).
        """
        if min(mass_flow, viscosity, density, length, flow_area) < 0.0:
            raise InputError("inputs must be non-negative")
        if flow_area <= 0.0:
            raise InputError("flow area must be positive")
        return (viscosity * length * mass_flow
                / (density * self.permeability * flow_area))


def sintered_powder_wick(particle_radius: float, porosity: float,
                         k_solid: float, k_liquid: float) -> Wick:
    """Sintered-powder wick (LHP primary wicks, high-performance HPs).

    Uses the Kozeny–Carman permeability
    ``K = r_s²·ε³ / (37.5·(1−ε)²)`` (with r_s the particle radius), the
    standard pore-radius estimate ``r_eff = 0.41·r_s`` and the Maxwell
    effective conductivity of a saturated packed bed.
    """
    if particle_radius <= 0.0:
        raise InputError("particle radius must be positive")
    _require_fraction("porosity", porosity)
    if k_solid <= 0.0 or k_liquid <= 0.0:
        raise InputError("conductivities must be positive")
    permeability = (particle_radius ** 2 * porosity ** 3
                    / (37.5 * (1.0 - porosity) ** 2))
    pore_radius = 0.41 * particle_radius
    k_eff = k_liquid * ((2.0 + k_solid / k_liquid
                         - 2.0 * porosity * (1.0 - k_solid / k_liquid))
                        / (2.0 + k_solid / k_liquid
                           + porosity * (1.0 - k_solid / k_liquid)))
    return Wick(pore_radius, permeability, porosity, abs(k_eff))


def sintered_necked_wick(particle_radius: float, porosity: float,
                         k_solid: float, k_liquid: float) -> Wick:
    """Well-sintered (necked) powder wick with continuous metal paths.

    Same pore/permeability geometry as :func:`sintered_powder_wick`, but
    the effective saturated conductivity uses Alexander's correlation
    ``k_eff = k_l·(k_s/k_l)^((1−ε)^0.59)``, appropriate when the
    particles are metallurgically fused: copper/water sintered wicks
    measure 30–50 W/m·K, far above the packed-bed (Maxwell) bound.
    The two factories bracket real hardware.
    """
    base = sintered_powder_wick(particle_radius, porosity, k_solid,
                                k_liquid)
    k_eff = k_liquid * (k_solid / k_liquid) ** ((1.0 - porosity) ** 0.59)
    return Wick(base.effective_pore_radius, base.permeability,
                base.porosity, k_eff)
