"""Reliability prediction: part failure rates and MTBF roll-up.

Level-3 thermal simulation exists, per the paper, because "the
[junction] temperature will be used as an input data for the safety and
reliability calculations — typical MTBF for aerospace applications is
about 40,000 h".  This module implements the MIL-HDBK-217F-style parts
count/parts stress flow:

* per-part base failure rates scaled by an Arrhenius temperature
  acceleration factor π_T, a quality factor π_Q and an environment
  factor π_E;
* a series-system roll-up to equipment failure rate and MTBF;
* derating checks against the 125 °C junction / 85 °C ambient rules
  quoted in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..errors import InputError
from ..units import BOLTZMANN_EV, celsius_to_kelvin

#: Environment factors π_E (MIL-HDBK-217F style).
ENVIRONMENT_FACTORS: Dict[str, float] = {
    "ground_benign": 0.5,
    "ground_fixed": 2.0,
    "airborne_inhabited_cargo": 4.0,
    "airborne_inhabited_fighter": 5.0,
    "airborne_uninhabited_cargo": 5.0,
    "airborne_uninhabited_fighter": 8.0,
    "space_flight": 0.5,
    "missile_launch": 12.0,
}

#: Quality factors π_Q.
QUALITY_FACTORS: Dict[str, float] = {
    "space": 0.25,
    "full_mil": 1.0,
    "industrial": 2.0,
    "commercial_cots": 5.0,  # the paper's "low-cost plastic/COTS" concern
}

#: Reference junction temperature for base failure rates [K].
REFERENCE_JUNCTION = celsius_to_kelvin(40.0)

#: Paper's derating ceilings.
MAX_JUNCTION = celsius_to_kelvin(125.0)
MAX_AMBIENT = celsius_to_kelvin(85.0)


@dataclass(frozen=True)
class PartReliability:
    """Reliability model of one electronic part.

    Parameters
    ----------
    name:
        Reference designator or type.
    base_failure_rate_fit:
        Base failure rate at :data:`REFERENCE_JUNCTION` [FIT = 1e-9/h].
    activation_energy_ev:
        Arrhenius activation energy [eV] (0.3–0.7 typical for silicon
        mechanisms; 0.4 default).
    quality:
        Key into :data:`QUALITY_FACTORS`.
    """

    name: str
    base_failure_rate_fit: float
    activation_energy_ev: float = 0.4
    quality: str = "industrial"

    def __post_init__(self) -> None:
        if self.base_failure_rate_fit <= 0.0:
            raise InputError(f"{self.name}: base failure rate must be "
                             "positive")
        if self.activation_energy_ev <= 0.0:
            raise InputError(f"{self.name}: activation energy must be "
                             "positive")
        if self.quality not in QUALITY_FACTORS:
            raise InputError(f"{self.name}: unknown quality "
                             f"{self.quality!r}; known: "
                             f"{sorted(QUALITY_FACTORS)}")

    def temperature_factor(self, junction_temperature: float) -> float:
        """Arrhenius acceleration π_T relative to the reference junction.

        π_T = exp[(Ea/k)·(1/T_ref − 1/T_j)].
        """
        if junction_temperature <= 0.0:
            raise InputError("junction temperature must be positive kelvin")
        return math.exp(self.activation_energy_ev / BOLTZMANN_EV
                        * (1.0 / REFERENCE_JUNCTION
                           - 1.0 / junction_temperature))

    def failure_rate_fit(self, junction_temperature: float,
                         environment: str) -> float:
        """Predicted failure rate [FIT] at temperature and environment."""
        if environment not in ENVIRONMENT_FACTORS:
            raise InputError(f"unknown environment {environment!r}; known: "
                             f"{sorted(ENVIRONMENT_FACTORS)}")
        return (self.base_failure_rate_fit
                * self.temperature_factor(junction_temperature)
                * QUALITY_FACTORS[self.quality]
                * ENVIRONMENT_FACTORS[environment])


@dataclass(frozen=True)
class ReliabilityPrediction:
    """Equipment-level reliability roll-up result."""

    total_failure_rate_fit: float
    mtbf_hours: float
    per_part_fit: Dict[str, float]
    derating_violations: Tuple[str, ...]

    @property
    def compliant_40k(self) -> bool:
        """True if the paper's typical 40 000 h aerospace MTBF is met and
        no derating rule is violated."""
        return self.mtbf_hours >= 40_000.0 and not self.derating_violations


def predict_mtbf(parts: Sequence[PartReliability],
                 junction_temperatures: Dict[str, float],
                 environment: str = "airborne_inhabited_cargo",
                 ambient_temperature: float = celsius_to_kelvin(55.0)
                 ) -> ReliabilityPrediction:
    """Series-system MTBF from per-part junction temperatures.

    ``junction_temperatures`` maps part name → T_j [K] (the level-3
    simulation output).  Parts missing from the map raise
    :class:`InputError` — a junction temperature is mandatory input to the
    reliability calculation, exactly as the design flow prescribes.
    """
    if not parts:
        raise InputError("need at least one part")
    if ambient_temperature <= 0.0:
        raise InputError("ambient temperature must be positive kelvin")
    per_part: Dict[str, float] = {}
    violations = []
    if ambient_temperature > MAX_AMBIENT:
        violations.append(
            f"ambient {ambient_temperature - 273.15:.0f} degC exceeds the "
            f"85 degC rule")
    for part in parts:
        if part.name not in junction_temperatures:
            raise InputError(
                f"no junction temperature supplied for part {part.name!r}")
        t_j = junction_temperatures[part.name]
        if t_j > MAX_JUNCTION:
            violations.append(
                f"{part.name}: junction {t_j - 273.15:.0f} degC exceeds "
                "the 125 degC rule")
        per_part[part.name] = part.failure_rate_fit(t_j, environment)
    total_fit = sum(per_part.values())
    mtbf_hours = 1.0e9 / total_fit
    return ReliabilityPrediction(
        total_failure_rate_fit=total_fit,
        mtbf_hours=mtbf_hours,
        per_part_fit=per_part,
        derating_violations=tuple(violations),
    )


def fan_reliability_penalty(equipment_failure_rate_fit: float,
                            n_fans: int,
                            fan_failure_rate_fit: float = 8000.0) -> float:
    """MTBF ratio of a fan-cooled equipment to its passive equivalent.

    Fans dominate electronics failure budgets (the paper's motivation for
    *passive* SEB cooling: "reliability and maintenance concern").  A
    typical tube-axial fan contributes several thousand FIT.
    """
    if equipment_failure_rate_fit <= 0.0:
        raise InputError("equipment failure rate must be positive")
    if n_fans < 0:
        raise InputError("fan count must be non-negative")
    if fan_failure_rate_fit <= 0.0:
        raise InputError("fan failure rate must be positive")
    with_fans = equipment_failure_rate_fit + n_fans * fan_failure_rate_fit
    return equipment_failure_rate_fit / with_fans
