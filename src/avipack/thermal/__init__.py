"""Thermal analysis substrate: networks, conduction, convection, radiation.

This package replaces the commercial finite-volume tool (FloTHERM) used in
the paper with from-scratch solvers of the same abstraction level:

* :mod:`~avipack.thermal.network` — lumped resistance networks (the
  paper's "resistive network model" of Fig. 4);
* :mod:`~avipack.thermal.conduction` — structured finite-volume
  conduction for board/module detail models;
* :mod:`~avipack.thermal.convection` — film-coefficient correlations;
* :mod:`~avipack.thermal.radiation` — linearised radiative film
  coefficient;
* :mod:`~avipack.thermal.transient` — time integration for thermal shock
  and climatic cycling.
"""

from .._exports import lazy_exports

_EXPORTS = {
    ".conduction": ("ADIABATIC", "FACES", "BoundaryCondition", "CartesianGrid",
                    "ConductionSolution", "ConductionSolver"),
    ".convection": ("air_outlet_temperature", "duct_velocity",
                    "forced_convection_duct", "forced_convection_flat_plate",
                    "natural_convection_horizontal_cylinder",
                    "natural_convection_vertical_plate", "rayleigh_number",
                    "reynolds_number"),
    ".network": ("NetworkSolution", "ThermalNetwork", "spreading_resistance"),
    ".radiation": ("linearized_radiation_coefficient",),
    ".transient": ("TransientNetworkResult", "TransientNetworkSolver",
                   "cyclic_profile", "ramp_profile"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
