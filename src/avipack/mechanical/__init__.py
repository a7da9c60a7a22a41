"""Mechanical analysis substrate (the paper's ANSYS workflow, rebuilt).

* :mod:`~avipack.mechanical.plate` — PCB/panel modal analysis
  (Rayleigh–Ritz Kirchhoff plates) and mode-placement design helpers;
* :mod:`~avipack.mechanical.beam` — Euler–Bernoulli beam FEM;
* :mod:`~avipack.mechanical.random_vibration` — PSD handling and Miles'
  equation;
* :mod:`~avipack.mechanical.fatigue` — Steinberg criterion, three-band
  damage, Coffin–Manson thermal cycling;
* :mod:`~avipack.mechanical.isolation` — isolator/damper design (the IMU
  mechanical filter of Fig. 3);
* :mod:`~avipack.mechanical.shock` — SRS and quasi-static acceleration.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".beam": ("BeamModel", "BeamSection", "simply_supported_beam_frequency"),
    ".fatigue": ("BAND_FRACTIONS", "COMPONENT_CONSTANTS",
                 "CYCLES_TO_FAIL_RANDOM", "fatigue_life_hours",
                 "margin_of_safety", "sn_cycles_to_failure",
                 "steinberg_allowable_deflection",
                 "thermal_cycling_life_coffin_manson",
                 "three_band_damage_rate"),
    ".isolation": ("Isolator", "damper_tuning", "design_isolator",
                   "static_sag", "stiffness_for_frequency"),
    ".plate": ("PlateMode", "PlateSpec", "fundamental_frequency", "mode_shape",
               "plate_modes", "stiffener_rigidity_for_frequency",
               "thickness_for_frequency"),
    ".random_vibration": ("PowerSpectralDensity", "default_q_factor",
                          "miles_rms_acceleration",
                          "positive_crossings_per_second",
                          "rms_displacement_from_acceleration", "three_sigma"),
    ".shock": ("QuasiStaticLoadCase", "bracket_stress",
               "fastener_shear_stress", "half_sine_pulse",
               "sdof_peak_response", "shock_response_spectrum",
               "terminal_sawtooth_pulse"),
    ".sine": ("SineSpec", "do160_propeller_sine", "peak_sine_response",
              "resonance_dwell_cycles", "sdof_magnification"),
    ".thermomechanical": ("Layer", "SolderJointAssessment", "bimaterial_bow",
                          "bimaterial_curvature",
                          "bimaterial_interface_stress",
                          "constrained_thermal_stress",
                          "qualification_shock_joint_life",
                          "solder_joint_assessment",
                          "underfill_benefit_factor"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BAND_FRACTIONS",
    "SineSpec",
    "do160_propeller_sine",
    "peak_sine_response",
    "resonance_dwell_cycles",
    "sdof_magnification",
    "Layer",
    "SolderJointAssessment",
    "bimaterial_bow",
    "bimaterial_curvature",
    "bimaterial_interface_stress",
    "constrained_thermal_stress",
    "qualification_shock_joint_life",
    "solder_joint_assessment",
    "underfill_benefit_factor",
    "BeamModel",
    "BeamSection",
    "COMPONENT_CONSTANTS",
    "CYCLES_TO_FAIL_RANDOM",
    "Isolator",
    "PlateMode",
    "PlateSpec",
    "PowerSpectralDensity",
    "QuasiStaticLoadCase",
    "bracket_stress",
    "damper_tuning",
    "default_q_factor",
    "design_isolator",
    "fastener_shear_stress",
    "fatigue_life_hours",
    "fundamental_frequency",
    "half_sine_pulse",
    "margin_of_safety",
    "miles_rms_acceleration",
    "mode_shape",
    "plate_modes",
    "positive_crossings_per_second",
    "rms_displacement_from_acceleration",
    "sdof_peak_response",
    "shock_response_spectrum",
    "simply_supported_beam_frequency",
    "sn_cycles_to_failure",
    "static_sag",
    "steinberg_allowable_deflection",
    "stiffener_rigidity_for_frequency",
    "stiffness_for_frequency",
    "terminal_sawtooth_pulse",
    "thermal_cycling_life_coffin_manson",
    "thickness_for_frequency",
    "three_band_damage_rate",
    "three_sigma",
]
