"""RTCA DO-160 environmental categories: vibration curves and temperature
categories.

DO-160 is the qualification bible for airborne equipment; the paper's
COSEE seats were vibrated "according to DO-160 curve C1".  This module
encodes

* the standard random-vibration PSD curve shapes (B, C, C1, D, E) as
  :class:`~avipack.mechanical.random_vibration.PowerSpectralDensity`
  break-point tables.  The shapes follow the published curves: a +6
  dB/octave rise to a plateau between 40 and 500 Hz, then a −6 dB/octave
  roll-off to 2 kHz, with the plateau level setting the severity;
* operating/survival temperature categories for equipment locations
  (controlled bay, uncontrolled bay, external).

Values are representative of the standard's tables and documented as the
simulation's qualification levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import InputError
from ..mechanical.random_vibration import PowerSpectralDensity
from ..units import celsius_to_kelvin

#: Plateau PSD level [g²/Hz] per DO-160 random vibration curve.
_CURVE_PLATEAUS: Dict[str, float] = {
    "B": 0.002,    # low-vibration fuselage zones
    "B1": 0.0012,
    "C": 0.012,    # standard equipment racks, turbofan
    "C1": 0.02,    # equipment near structure, the COSEE test level
    "D": 0.04,     # high-vibration zones
    "E": 0.08,     # engine-mounted / extreme
}


def vibration_curve(curve: str) -> PowerSpectralDensity:
    """DO-160 random-vibration PSD for ``curve`` (e.g. ``"C1"``).

    Shape: +6 dB/octave from 10 Hz to the 40–500 Hz plateau, −6 dB/octave
    from 500 Hz to 2 kHz.
    """
    if curve not in _CURVE_PLATEAUS:
        raise InputError(f"unknown DO-160 curve {curve!r}; known: "
                         f"{sorted(_CURVE_PLATEAUS)}")
    plateau = _CURVE_PLATEAUS[curve]
    # +6 dB/octave = PSD x4 per frequency doubling => level ∝ f².
    level_10 = plateau * (10.0 / 40.0) ** 2
    level_2000 = plateau * (500.0 / 2000.0) ** 2
    return PowerSpectralDensity((
        (10.0, level_10),
        (40.0, plateau),
        (500.0, plateau),
        (2000.0, level_2000),
    ))


def curve_names() -> Tuple[str, ...]:
    """Available DO-160 vibration curve identifiers."""
    return tuple(sorted(_CURVE_PLATEAUS))


@dataclass(frozen=True)
class TemperatureCategory:
    """A DO-160 section 4/5 temperature/altitude category.

    All temperatures in kelvin.
    """

    name: str
    operating_low: float
    operating_high: float
    short_time_high: float
    ground_survival_low: float
    ground_survival_high: float
    max_altitude_m: float

    def __post_init__(self) -> None:
        if not (self.ground_survival_low <= self.operating_low
                <= self.operating_high <= self.short_time_high
                <= self.ground_survival_high + 30.0):
            raise InputError(
                f"category {self.name}: inconsistent temperature ordering")
        if self.max_altitude_m <= 0.0:
            raise InputError("altitude must be positive")

    def contains_operating(self, temperature: float) -> bool:
        """True if ``temperature`` [K] is inside the operating band."""
        return self.operating_low <= temperature <= self.operating_high


#: Representative DO-160 temperature categories.
TEMPERATURE_CATEGORIES: Dict[str, TemperatureCategory] = {
    # Controlled temperature bay (most avionics racks).
    "A1": TemperatureCategory(
        name="A1",
        operating_low=celsius_to_kelvin(-15.0),
        operating_high=celsius_to_kelvin(55.0),
        short_time_high=celsius_to_kelvin(70.0),
        ground_survival_low=celsius_to_kelvin(-55.0),
        ground_survival_high=celsius_to_kelvin(85.0),
        max_altitude_m=4600.0,
    ),
    # Partially controlled zones (the IFE cabin equipment case).
    "A2": TemperatureCategory(
        name="A2",
        operating_low=celsius_to_kelvin(-25.0),
        operating_high=celsius_to_kelvin(55.0),
        short_time_high=celsius_to_kelvin(70.0),
        ground_survival_low=celsius_to_kelvin(-55.0),
        ground_survival_high=celsius_to_kelvin(85.0),
        max_altitude_m=4600.0,
    ),
    # Uncontrolled / non-pressurised zones.
    "B2": TemperatureCategory(
        name="B2",
        operating_low=celsius_to_kelvin(-45.0),
        operating_high=celsius_to_kelvin(70.0),
        short_time_high=celsius_to_kelvin(85.0),
        ground_survival_low=celsius_to_kelvin(-55.0),
        ground_survival_high=celsius_to_kelvin(85.0),
        max_altitude_m=10_700.0,
    ),
    # External / severe.
    "D2": TemperatureCategory(
        name="D2",
        operating_low=celsius_to_kelvin(-55.0),
        operating_high=celsius_to_kelvin(70.0),
        short_time_high=celsius_to_kelvin(85.0),
        ground_survival_low=celsius_to_kelvin(-55.0),
        ground_survival_high=celsius_to_kelvin(85.0),
        max_altitude_m=16_800.0,
    ),
}


def temperature_category(name: str) -> TemperatureCategory:
    """Look a temperature category up by name."""
    try:
        return TEMPERATURE_CATEGORIES[name]
    except KeyError:
        raise InputError(
            f"unknown temperature category {name!r}; known: "
            f"{sorted(TEMPERATURE_CATEGORIES)}") from None
