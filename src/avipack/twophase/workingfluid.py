"""Working-fluid abstraction for two-phase devices.

Wraps the saturation-property correlations of
:mod:`avipack.materials.fluids` into a :class:`WorkingFluid` object that a
heat pipe, loop heat pipe or vapor chamber can hold, plus selection helpers
that rank candidate fluids for a given operating envelope — the trade
study a packaging engineer runs before committing to ammonia (ITP/Euro
Heat Pipes LHPs), water or methanol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import InputError, ModelRangeError
from ..materials.fluids import (
    SaturationState,
    list_working_fluids,
    saturation_properties,
)


@dataclass(frozen=True)
class WorkingFluid:
    """A named two-phase working fluid.

    Thin immutable handle; property evaluation delegates to the saturation
    correlations, so two devices sharing a fluid stay consistent.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in list_working_fluids():
            raise InputError(
                f"unknown working fluid {self.name!r}; known: "
                f"{', '.join(list_working_fluids())}")

    def saturation(self, temperature: float) -> SaturationState:
        """Saturation state at ``temperature`` [K]."""
        return saturation_properties(self.name, temperature)

    def merit_number(self, temperature: float) -> float:
        """Liquid transport figure of merit at ``temperature`` [W/m²]."""
        return self.saturation(temperature).merit_number()

    def vapor_pressure(self, temperature: float) -> float:
        """Saturation pressure at ``temperature`` [Pa]."""
        return self.saturation(temperature).pressure

def select_fluid(t_operating: float, t_min_survival: float = 218.15,
                 max_pressure: float = 4.0e6) -> Tuple[str, float]:
    """Pick the best working fluid for an operating point.

    Ranks fluids by merit number at ``t_operating`` and discards candidates
    whose saturation pressure at ``t_operating`` exceeds ``max_pressure``
    (container strength) or whose correlation cannot represent the cold
    survival temperature ``t_min_survival`` (freezing / property validity —
    the −55 °C avionics storage requirement by default).

    Returns the winning ``(name, merit_number)``.

    Raises
    ------
    InputError
        If no fluid survives the screening.
    """
    if t_operating <= 0.0:
        raise InputError("operating temperature must be positive kelvin")
    best_name, best_merit = "", -1.0
    for name in list_working_fluids():
        try:
            state = saturation_properties(name, t_operating)
        except ModelRangeError:
            continue
        if state.pressure > max_pressure:
            continue
        try:
            saturation_properties(name, max(t_min_survival, 150.1))
        except ModelRangeError:
            continue
        merit = state.merit_number()
        if merit > best_merit:
            best_name, best_merit = name, merit
    if not best_name:
        raise InputError(
            f"no working fluid satisfies T_op={t_operating} K, "
            f"T_survival={t_min_survival} K, p_max={max_pressure} Pa")
    return best_name, best_merit
