"""Avionics environmental specifications.

* :mod:`~avipack.environments.do160` — DO-160 vibration curves and
  temperature categories;
* :mod:`~avipack.environments.arinc600` — ARINC 600 forced-air cooling
  allocations and the hot-spot feasibility analysis;
* :mod:`~avipack.environments.profiles` — qualification test profiles
  (the COSEE campaign).
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".arinc600": ("STANDARD_FLOW_KG_H_PER_KW", "STANDARD_INLET_TEMPERATURE",
                  "CardChannel", "ForcedAirPerformance", "allocated_mass_flow",
                  "hotspot_surface_rise", "module_performance",
                  "required_flow_multiplier"),
    ".do160": ("TEMPERATURE_CATEGORIES", "TemperatureCategory", "curve_names",
               "temperature_category", "vibration_curve"),
    ".profiles": ("AccelerationTest", "ClimaticTest", "QualificationCampaign",
                  "ThermalShockTest", "VibrationTest", "cosee_campaign"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
