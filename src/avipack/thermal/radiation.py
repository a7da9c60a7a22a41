"""Thermal radiation: the linearised gray-body film coefficient.

Radiation matters for passively cooled cabin equipment: the COSEE seat
electronics box sheds a significant fraction of its heat by radiation to
the cabin.  The design flow folds that exchange into a linearised
radiative film coefficient added to the convective one.
"""

from __future__ import annotations

from ..errors import InputError
from ..units import STEFAN_BOLTZMANN


def linearized_radiation_coefficient(emissivity: float,
                                     t_surface: float,
                                     t_surroundings: float) -> float:
    """Linearised radiative film coefficient h_r [W/(m²·K)].

    h_r = ε·σ·(T_s² + T_sur²)(T_s + T_sur) — convenient for quick hand
    calculations at level 1 of the design flow.
    """
    if not 0.0 < emissivity <= 1.0:
        raise InputError("emissivity must be in (0, 1]")
    if t_surface <= 0.0 or t_surroundings <= 0.0:
        raise InputError("temperatures must be positive kelvin")
    return (emissivity * STEFAN_BOLTZMANN
            * (t_surface ** 2 + t_surroundings ** 2)
            * (t_surface + t_surroundings))
