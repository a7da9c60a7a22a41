"""Material and fluid property models.

* :mod:`avipack.materials.library` — solid materials (metals, ceramics,
  laminates, composites) with thermal and structural properties.
* :mod:`avipack.materials.fluids` — single-phase coolant properties and
  saturation-line properties of two-phase working fluids.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".fluids": ("FluidState", "SaturationState", "air_properties",
                "list_working_fluids", "rank_working_fluids",
                "saturation_properties", "water_properties"),
    ".library": ("CARBON_COMPOSITE", "DEFAULT_LIBRARY", "FR4_LAMINATE",
                 "Material", "MaterialLibrary", "OrthotropicMaterial",
                 "get_material", "pcb_effective_conductivity"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
