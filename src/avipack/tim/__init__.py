"""Thermal interface materials (the NANOPACK project, rebuilt in models).

* :mod:`~avipack.tim.models` — Lewis–Nielsen conductivity of filled
  adhesives and the loading that reaches a target;
* :mod:`~avipack.tim.interface` — assembled interface resistance, BLT
  scaling, HNC and nanosponge surfaces;
* :mod:`~avipack.tim.tester` — virtual ASTM D5470 tester and four-wire
  micro-ohmmeter with calibrated noise;
* :mod:`~avipack.tim.catalog` — material catalogue including the
  NANOPACK developments (6 / 9.5 / 20 W/m·K).
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".catalog": ("TimMaterial", "get_tim", "list_tims"),
    ".interface": ("ThermalInterface", "bond_line_thickness",
                   "meets_nanopack_target"),
    ".models": ("LEWIS_NIELSEN_SHAPES", "electrical_resistivity_filled",
                "lewis_nielsen", "loading_for_conductivity"),
    ".tester": ("D5470Measurement", "D5470Tester", "FourWireOhmmeter",
                "TimCharacterization"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
