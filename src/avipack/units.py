"""Unit conversion helpers and physical constants.

The library works in SI units internally (kelvin, watt, metre, kilogram,
second, pascal).  The avionics literature, however, quotes temperatures in
degrees Celsius, interface resistances in K·mm²/W and air-cooling flow
rates in kg/h per kW of dissipation (the ARINC 600 convention).  These
helpers perform the conversions the library needs explicitly so that no
magic factors appear inside the solvers.
"""

from __future__ import annotations

from .errors import InputError

# ---------------------------------------------------------------------------
# Physical constants (CODATA 2018 where applicable)
# ---------------------------------------------------------------------------

#: Stefan-Boltzmann constant [W/(m²·K⁴)].
STEFAN_BOLTZMANN = 5.670374419e-8

#: Standard gravitational acceleration [m/s²].
G0 = 9.80665

#: Universal gas constant [J/(mol·K)].
R_UNIVERSAL = 8.314462618

#: Boltzmann constant [eV/K] — used by Arrhenius reliability models.
BOLTZMANN_EV = 8.617333262e-5

#: Absolute zero offset between Celsius and Kelvin scales.
ZERO_CELSIUS = 273.15

#: Standard atmospheric pressure [Pa].
ATM = 101_325.0


# ---------------------------------------------------------------------------
# Temperature
# ---------------------------------------------------------------------------

def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin.

    Raises :class:`~avipack.errors.InputError` if the result would be below
    absolute zero.
    """
    temp_k = temp_c + ZERO_CELSIUS
    if temp_k < 0.0:
        raise InputError(f"temperature {temp_c} degC is below absolute zero")
    return temp_k


def kelvin_to_celsius(temp_k: float) -> float:
    """Convert a temperature from kelvin to degrees Celsius."""
    if temp_k < 0.0:
        raise InputError(f"temperature {temp_k} K is below absolute zero")
    return temp_k - ZERO_CELSIUS


# ---------------------------------------------------------------------------
# Thermal resistance
# ---------------------------------------------------------------------------

def si_to_kmm2_per_w(resistance_km2_w: float) -> float:
    """Convert an area-specific thermal resistance from K·m²/W to K·mm²/W."""
    return resistance_km2_w * 1.0e6


# ---------------------------------------------------------------------------
# ARINC 600 style mass-flow specifications
# ---------------------------------------------------------------------------

def arinc_flow_to_kg_per_s(flow_kg_h_per_kw: float, power_w: float) -> float:
    """Convert an ARINC 600 cooling-air allocation to an absolute mass flow.

    Parameters
    ----------
    flow_kg_h_per_kw:
        Specific mass flow in kg/h per kW of dissipated power (the ARINC 600
        standard allocation is 220 kg/h/kW).
    power_w:
        Equipment dissipation in watts.

    Returns
    -------
    float
        Mass flow in kg/s.
    """
    if power_w < 0.0:
        raise InputError("power must be non-negative")
    if flow_kg_h_per_kw < 0.0:
        raise InputError("flow allocation must be non-negative")
    return flow_kg_h_per_kw * (power_w / 1000.0) / 3600.0
