"""Convective heat-transfer correlations.

The correlations here replace the CFD step of a tool like FloTHERM with
validated engineering relations.  They cover the situations in the paper:

* **natural convection** around cabin equipment (the SEB with fans removed),
  on vertical plates and from the seat-structure rods;
* **forced convection** in avionics racks supplied by ARINC 600 air
  (channel flow between boards, flow over components).

All functions take a :class:`~avipack.materials.fluids.FluidState` for the
film-temperature fluid properties and return a mean film coefficient
``h`` in W/(m²·K) or a Nusselt number.
"""

from __future__ import annotations

import math

from ..errors import InputError
from ..materials.fluids import FluidState
from ..units import G0


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0.0:
            raise InputError(f"{name} must be positive, got {value}")


# ---------------------------------------------------------------------------
# Dimensionless groups
# ---------------------------------------------------------------------------

def reynolds_number(fluid: FluidState, velocity: float,
                    length: float) -> float:
    """Reynolds number Re = ρ·V·L / µ."""
    _check_positive(velocity=velocity, length=length)
    return fluid.density * velocity * length / fluid.viscosity


def rayleigh_number(fluid: FluidState, delta_t: float, length: float) -> float:
    """Rayleigh number Ra = g·β·ΔT·L³ / (ν·α) for natural convection.

    ``delta_t`` is taken in absolute value; a zero ΔT returns 0.
    """
    _check_positive(length=length)
    nu = fluid.kinematic_viscosity
    alpha = fluid.thermal_diffusivity
    return G0 * fluid.expansion_coeff * abs(delta_t) * length ** 3 / (nu * alpha)


# ---------------------------------------------------------------------------
# Natural convection
# ---------------------------------------------------------------------------

def natural_convection_vertical_plate(fluid: FluidState, delta_t: float,
                                      height: float) -> float:
    """Mean film coefficient on a vertical plate (Churchill & Chu 1975).

    Valid for any Rayleigh number; returns h in W/(m²·K).  ``delta_t`` is
    the surface-to-ambient temperature difference and ``height`` the plate
    height.
    """
    ra = rayleigh_number(fluid, delta_t, height)
    pr = fluid.prandtl
    if ra <= 0.0:
        return 0.0
    term = (1.0 + (0.492 / pr) ** (9.0 / 16.0)) ** (8.0 / 27.0)
    nu = (0.825 + 0.387 * ra ** (1.0 / 6.0) / term) ** 2
    return nu * fluid.conductivity / height


def natural_convection_horizontal_cylinder(fluid: FluidState, delta_t: float,
                                           diameter: float) -> float:
    """Horizontal cylinder (Churchill & Chu 1975), h in W/(m²·K).

    Used for the seat-structure rods that act as the LHP heat sink.
    """
    ra = rayleigh_number(fluid, delta_t, diameter)
    pr = fluid.prandtl
    if ra <= 0.0:
        return 0.0
    term = (1.0 + (0.559 / pr) ** (9.0 / 16.0)) ** (8.0 / 27.0)
    nu = (0.60 + 0.387 * ra ** (1.0 / 6.0) / term) ** 2
    return nu * fluid.conductivity / diameter


# ---------------------------------------------------------------------------
# Forced convection
# ---------------------------------------------------------------------------

def forced_convection_flat_plate(fluid: FluidState, velocity: float,
                                 length: float) -> float:
    """Mean h over a flat plate with mixed laminar/turbulent boundary layer.

    Uses Nu = 0.664·Re^0.5·Pr^(1/3) in laminar flow and the mixed
    correlation Nu = (0.037·Re^0.8 − 871)·Pr^(1/3) past the transition at
    Re = 5·10⁵ (Incropera).  Returns h in W/(m²·K).
    """
    re = reynolds_number(fluid, velocity, length)
    pr = fluid.prandtl
    if re < 5e5:
        nu = 0.664 * math.sqrt(re) * pr ** (1.0 / 3.0)
    else:
        nu = (0.037 * re ** 0.8 - 871.0) * pr ** (1.0 / 3.0)
    return nu * fluid.conductivity / length


def forced_convection_duct(fluid: FluidState, velocity: float,
                           hydraulic_diameter: float,
                           heating: bool = True) -> float:
    """Fully developed duct flow, laminar or Dittus–Boelter turbulent.

    The card-to-card channel of an air-cooled rack is modelled as a duct of
    hydraulic diameter ``D_h = 4·A/P``.  Laminar flow (Re < 2300) uses the
    constant-Nu solution for parallel plates (Nu = 7.54); turbulent flow
    uses Nu = 0.023·Re^0.8·Pr^n with n = 0.4 when heating the fluid.
    Returns h in W/(m²·K).
    """
    re = reynolds_number(fluid, velocity, hydraulic_diameter)
    pr = fluid.prandtl
    if re < 2300.0:
        nu = 7.54
    else:
        exponent = 0.4 if heating else 0.3
        nu = 0.023 * re ** 0.8 * pr ** exponent
    return nu * fluid.conductivity / hydraulic_diameter


def duct_velocity(mass_flow: float, fluid: FluidState,
                  flow_area: float) -> float:
    """Bulk velocity from mass flow: V = ṁ / (ρ·A) [m/s]."""
    _check_positive(mass_flow=mass_flow, flow_area=flow_area)
    return mass_flow / (fluid.density * flow_area)


def air_outlet_temperature(inlet_temperature: float, power: float,
                           mass_flow: float,
                           specific_heat: float = 1006.0) -> float:
    """Coolant outlet temperature from an energy balance.

    T_out = T_in + Q / (ṁ·cp).  Used to size ARINC 600 flow allocations.
    """
    _check_positive(mass_flow=mass_flow, specific_heat=specific_heat)
    if power < 0.0:
        raise InputError("power must be non-negative")
    return inlet_temperature + power / (mass_flow * specific_heat)
