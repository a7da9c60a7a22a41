"""Mechanical analysis substrate (the paper's ANSYS workflow, rebuilt).

* :mod:`~avipack.mechanical.plate` — PCB/panel modal analysis
  (Rayleigh–Ritz Kirchhoff plates) and mode-placement design helpers;
* :mod:`~avipack.mechanical.random_vibration` — PSD handling and Miles'
  equation;
* :mod:`~avipack.mechanical.fatigue` — Steinberg criterion, three-band
  damage, Coffin–Manson thermal cycling;
* :mod:`~avipack.mechanical.isolation` — isolator/damper design (the IMU
  mechanical filter of Fig. 3);
* :mod:`~avipack.mechanical.thermomechanical` — CTE-mismatch bow and
  solder-joint screening.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".fatigue": ("BAND_FRACTIONS", "COMPONENT_CONSTANTS",
                 "CYCLES_TO_FAIL_RANDOM", "fatigue_life_hours",
                 "margin_of_safety", "steinberg_allowable_deflection",
                 "thermal_cycling_life_coffin_manson",
                 "three_band_damage_rate"),
    ".isolation": ("Isolator", "damper_tuning", "design_isolator",
                   "static_sag", "stiffness_for_frequency"),
    ".plate": ("PlateMode", "PlateSpec", "fundamental_frequency",
               "plate_modes", "stiffener_rigidity_for_frequency"),
    ".random_vibration": ("PowerSpectralDensity", "default_q_factor",
                          "miles_rms_acceleration",
                          "rms_displacement_from_acceleration"),
    ".thermomechanical": ("Layer", "SolderJointAssessment", "bimaterial_bow",
                          "bimaterial_curvature", "solder_joint_assessment",
                          "underfill_benefit_factor"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
