"""Vibration fatigue: Steinberg's PCB criterion and three-band counting.

The paper's packaging objective is to "identify the weaknesses of the
design and margins regarding fatigue effects".  The industry-standard
method for electronics is Steinberg's:

* an **allowable board deflection** that guarantees 10⁷ (sine) / 2·10⁷
  (random) stress reversals for the mounted components,
  ``Z_allow = 0.00022·B / (C·h·r·sqrt(L))`` (inches in the original —
  handled here in SI);
* the **three-band technique** for random vibration: the response spends
  68.3 % of the time within 1σ, 27.1 % within 2σ and 4.33 % within 3σ,
  and Miner's rule accumulates the damage of the three bands against a
  power-law S–N curve.
"""

from __future__ import annotations

import math
from typing import Dict

from ..errors import InputError

#: Steinberg constant in inch units (0.00022) converted factor handled below.
_STEINBERG_CONSTANT_INCH = 0.00022

#: Gaussian band occupancy fractions for the three-band method.
BAND_FRACTIONS = (0.683, 0.271, 0.0433)

#: Steinberg's reference cycle capacity under random vibration.
CYCLES_TO_FAIL_RANDOM = 2.0e7


#: Component-type position constants C for the Steinberg formula.
COMPONENT_CONSTANTS: Dict[str, float] = {
    "dip_axial": 1.0,          # standard DIP / axial leaded
    "dip_side_brazed": 1.26,   # side-brazed DIP
    "pga": 1.26,               # pin grid array
    "smt_leadless": 2.25,      # leadless chip carrier / large BGA class
    "smt_gullwing": 1.0,       # gull-wing SMT
    "to_can": 0.75,            # transistor cans, robust small parts
}


def steinberg_allowable_deflection(board_length: float,
                                   component_length: float,
                                   component_type: str,
                                   relative_position: float = 1.0,
                                   board_thickness: float = 1.6e-3) -> float:
    """Steinberg allowable 3σ single-amplitude board deflection [m].

    ``Z_allow = 0.00022·B / (C·h·r·√L)`` with all lengths in inches in
    Steinberg's original; converted transparently here.

    Parameters
    ----------
    board_length:
        Board edge length parallel to the component [m] (``B``).
    component_length:
        Component body length [m] (``L``).
    component_type:
        Key into :data:`COMPONENT_CONSTANTS` (``C``).
    relative_position:
        ``r`` ∈ (0, 1]: 1.0 for a component at the board centre (worst),
        smaller towards the supported edges.
    board_thickness:
        PCB thickness [m] (``h``); 1.6 mm standard laminate by default.

    Returns the deflection that yields ~2·10⁷ cycles under random
    vibration.
    """
    if board_length <= 0.0 or component_length <= 0.0:
        raise InputError("lengths must be positive")
    if board_thickness <= 0.0:
        raise InputError("board thickness must be positive")
    if component_type not in COMPONENT_CONSTANTS:
        raise InputError(
            f"unknown component type {component_type!r}; known: "
            f"{sorted(COMPONENT_CONSTANTS)}")
    if not 0.0 < relative_position <= 1.0:
        raise InputError("relative position must be in (0, 1]")
    c = COMPONENT_CONSTANTS[component_type]
    b_in = board_length / 25.4e-3
    l_in = component_length / 25.4e-3
    h_in = board_thickness / 25.4e-3
    z_in = _STEINBERG_CONSTANT_INCH * b_in / (
        c * h_in * relative_position * math.sqrt(l_in))
    return z_in * 25.4e-3


def three_band_damage_rate(rms_deflection: float,
                           allowable_deflection: float,
                           natural_frequency: float,
                           exponent: float = 6.4) -> float:
    """Fractional fatigue damage per second by the three-band method.

    The 1σ/2σ/3σ response bands occur with Gaussian occupancy; each band's
    cycle life follows from the S–N exponent anchored at the Steinberg
    allowable (3σ deflection = ``allowable_deflection`` ⇒ life =
    2·10⁷ cycles).  Damage rate = Σ f_n·p_i / N_i (Miner).
    """
    if rms_deflection < 0.0:
        raise InputError("RMS deflection must be non-negative")
    if allowable_deflection <= 0.0:
        raise InputError("allowable deflection must be positive")
    if natural_frequency <= 0.0:
        raise InputError("natural frequency must be positive")
    if rms_deflection == 0.0:
        return 0.0
    damage_rate = 0.0
    for sigma_level, fraction in zip((1.0, 2.0, 3.0), BAND_FRACTIONS,
                                     strict=True):
        amplitude = sigma_level * rms_deflection
        # Life at this amplitude via the S-N power law anchored at the
        # allowable 3-sigma deflection.
        life = CYCLES_TO_FAIL_RANDOM * (allowable_deflection
                                        / amplitude) ** exponent
        damage_rate += natural_frequency * fraction / life
    return damage_rate


def fatigue_life_hours(rms_deflection: float, allowable_deflection: float,
                       natural_frequency: float,
                       exponent: float = 6.4) -> float:
    """Random-vibration fatigue life [h] from the three-band damage rate.

    Returns ``inf`` for zero response.
    """
    rate = three_band_damage_rate(rms_deflection, allowable_deflection,
                                  natural_frequency, exponent)
    if rate == 0.0:
        return float("inf")
    return 1.0 / rate / 3600.0


def margin_of_safety(actual: float, allowable: float) -> float:
    """Classical margin of safety MS = allowable/actual − 1.

    Positive = compliant.  ``actual`` may be stress, deflection or any
    like-for-like demand measure.
    """
    if actual <= 0.0:
        return float("inf")
    if allowable <= 0.0:
        raise InputError("allowable must be positive")
    return allowable / actual - 1.0


def thermal_cycling_life_coffin_manson(delta_t: float,
                                       reference_delta_t: float = 75.0,
                                       reference_cycles: float = 10_000.0,
                                       exponent: float = 2.0) -> float:
    """Coffin–Manson solder-joint life under thermal cycling.

    N = N_ref·(ΔT_ref/ΔT)^m with m ≈ 2.0–2.7 for SnAgCu solder.  Used to
    assess the −45/+55 °C thermal-shock qualification of the SEB.
    """
    if delta_t <= 0.0:
        raise InputError("temperature swing must be positive")
    if reference_delta_t <= 0.0 or reference_cycles <= 0.0:
        raise InputError("reference values must be positive")
    return reference_cycles * (reference_delta_t / delta_t) ** exponent
