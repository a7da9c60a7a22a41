"""Thermal interface materials (the NANOPACK project, rebuilt in models).

* :mod:`~avipack.tim.models` — effective-medium conductivity of filled
  adhesives, percolation, CNT arrays;
* :mod:`~avipack.tim.interface` — assembled interface resistance, BLT
  scaling, HNC surfaces, contact models;
* :mod:`~avipack.tim.tester` — virtual ASTM D5470 tester and four-wire
  micro-ohmmeter with calibrated noise;
* :mod:`~avipack.tim.catalog` — material catalogue including the
  NANOPACK developments (6 / 9.5 / 20 W/m·K).
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".catalog": ("TimMaterial", "best_tim_for_target", "get_tim", "list_tims"),
    ".interface": ("ThermalInterface", "bond_line_thickness",
                   "contact_resistance_mikic", "meets_nanopack_target",
                   "series_interface_resistance"),
    ".models": ("LEWIS_NIELSEN_SHAPES", "bruggeman", "cnt_array_conductivity",
                "electrical_resistivity_filled", "lewis_nielsen",
                "loading_for_conductivity", "maxwell_garnett",
                "percolation_conductivity"),
    ".tester": ("D5470Measurement", "D5470Tester", "FourWireOhmmeter",
                "TimCharacterization"),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "D5470Measurement",
    "D5470Tester",
    "FourWireOhmmeter",
    "LEWIS_NIELSEN_SHAPES",
    "ThermalInterface",
    "TimCharacterization",
    "TimMaterial",
    "best_tim_for_target",
    "bond_line_thickness",
    "bruggeman",
    "cnt_array_conductivity",
    "contact_resistance_mikic",
    "electrical_resistivity_filled",
    "get_tim",
    "lewis_nielsen",
    "list_tims",
    "loading_for_conductivity",
    "maxwell_garnett",
    "meets_nanopack_target",
    "percolation_conductivity",
    "series_interface_resistance",
]
