"""Catalogue of thermal interface materials, including the NANOPACK
developments.

Each entry is a :class:`TimMaterial` with the properties an assembly
engineer needs (conductivity, usable BLT range, electrical behaviour,
mechanical strength) plus a factory that assembles it into a
:class:`~avipack.tim.interface.ThermalInterface` at a given area and
pressure.

The NANOPACK entries carry the paper's reported figures:

* ``nanopack_silver_flake_epoxy`` — silver flakes in mono-epoxy,
  6 W/m·K, electrically conductive, 14 MPa shear strength;
* ``nanopack_silver_sphere_epoxy`` — micro silver spheres in multi-epoxy,
  9.5 W/m·K;
* ``nanopack_metal_polymer_composite`` — 20 W/m·K;
* baseline greases/pads for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import InputError, MaterialNotFoundError
from .interface import ThermalInterface, bond_line_thickness


@dataclass(frozen=True)
class TimMaterial:
    """A thermal-interface material as catalogued.

    Parameters
    ----------
    name:
        Unique identifier.
    conductivity:
        Bulk conductivity [W/(m·K)].
    filler_diameter:
        Characteristic filler size, setting the BLT floor [m].
    viscosity:
        Paste viscosity at assembly [Pa·s] (ignored for cured pads).
    contact_resistance:
        Per-side boundary resistance [K·m²/W].
    electrically_conductive:
        True for metal-filled adhesives (a constraint near exposed nets).
    volume_resistivity:
        Electrical resistivity [Ω·m] (``inf`` for insulators).
    shear_strength:
        Adhesive lap-shear strength [Pa] (0 for non-adhesive greases).
    min_blt:
        Thinnest achievable bond line [m].
    """

    name: str
    conductivity: float
    filler_diameter: float
    viscosity: float
    contact_resistance: float
    electrically_conductive: bool = False
    volume_resistivity: float = float("inf")
    shear_strength: float = 0.0
    min_blt: float = 10.0e-6

    def __post_init__(self) -> None:
        if self.conductivity <= 0.0:
            raise InputError(f"{self.name}: conductivity must be positive")
        if self.filler_diameter < 0.0:
            raise InputError(f"{self.name}: filler diameter must be >= 0")
        if self.viscosity <= 0.0:
            raise InputError(f"{self.name}: viscosity must be positive")
        if self.contact_resistance < 0.0:
            raise InputError(
                f"{self.name}: contact resistance must be >= 0")
        if self.min_blt <= 0.0:
            raise InputError(f"{self.name}: min BLT must be positive")

    def assemble(self, area: float, pressure: float = 3.0e5,
                 hnc_surface: bool = False) -> ThermalInterface:
        """Assemble this material into an interface of ``area`` [m²].

        The bond line follows the Prasher squeeze-flow scaling at the
        given ``pressure``, floored at ``min_blt``; ``hnc_surface`` applies
        the NANOPACK hierarchical-nested-channel reduction (> 20 %).
        """
        if area <= 0.0:
            raise InputError("area must be positive")
        if pressure <= 0.0:
            raise InputError("pressure must be positive")
        blt = max(bond_line_thickness(max(self.filler_diameter, 1e-7),
                                      self.viscosity, pressure),
                  self.min_blt)
        interface = ThermalInterface(
            conductivity=self.conductivity,
            bond_line_thickness=blt,
            contact_resistance=self.contact_resistance,
            area=area,
        )
        if hnc_surface:
            interface = interface.with_hnc_surface()
        return interface


_CATALOG: Dict[str, TimMaterial] = {
    material.name: material for material in (
        # --- Baselines --------------------------------------------------------
        TimMaterial(
            name="standard_grease",
            conductivity=0.8,
            filler_diameter=5.0e-6,
            viscosity=200.0,
            contact_resistance=3.0e-6,
            min_blt=25.0e-6,
        ),
        TimMaterial(
            name="silicone_pad",
            conductivity=1.5,
            filler_diameter=50.0e-6,
            viscosity=1.0e4,
            contact_resistance=2.0e-5,
            min_blt=200.0e-6,
        ),
        TimMaterial(
            name="standard_silver_epoxy",
            conductivity=2.5,
            filler_diameter=10.0e-6,
            viscosity=60.0,
            contact_resistance=4.0e-6,
            electrically_conductive=True,
            volume_resistivity=4.0e-6,
            shear_strength=10.0e6,
            min_blt=20.0e-6,
        ),
        # --- NANOPACK developments ---------------------------------------------
        TimMaterial(
            name="nanopack_silver_flake_epoxy",
            conductivity=6.0,
            filler_diameter=3.0e-6,
            viscosity=40.0,
            contact_resistance=1.2e-6,
            electrically_conductive=True,
            volume_resistivity=1.0e-6,  # 1e-4 Ohm.cm class
            shear_strength=14.0e6,
            min_blt=12.0e-6,
        ),
        TimMaterial(
            name="nanopack_silver_sphere_epoxy",
            conductivity=9.5,
            filler_diameter=4.0e-6,
            viscosity=45.0,
            contact_resistance=1.0e-6,
            electrically_conductive=True,
            volume_resistivity=2.0e-6,
            shear_strength=12.0e6,
            min_blt=12.0e-6,
        ),
        TimMaterial(
            name="nanopack_metal_polymer_composite",
            conductivity=20.0,
            filler_diameter=2.0e-6,
            viscosity=80.0,
            contact_resistance=1.0e-6,
            electrically_conductive=True,
            volume_resistivity=5.0e-6,
            shear_strength=8.0e6,
            min_blt=10.0e-6,
        ),
        TimMaterial(
            name="nanopack_cnt_array",
            conductivity=25.0,
            filler_diameter=0.5e-6,
            viscosity=1.0e3,
            contact_resistance=2.5e-6,
            min_blt=15.0e-6,
        ),
    )
}


def get_tim(name: str) -> TimMaterial:
    """Look a TIM up by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise MaterialNotFoundError(
            f"unknown TIM {name!r}; known: {', '.join(sorted(_CATALOG))}"
        ) from None


def list_tims() -> Tuple[str, ...]:
    """All catalogued TIM names, sorted."""
    return tuple(sorted(_CATALOG))
