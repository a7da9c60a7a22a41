"""Thermal analysis substrate: networks, conduction, convection, radiation.

This package replaces the commercial finite-volume tool (FloTHERM) used in
the paper with from-scratch solvers of the same abstraction level:

* :mod:`~avipack.thermal.network` — lumped resistance networks (the
  paper's "resistive network model" of Fig. 4);
* :mod:`~avipack.thermal.conduction` — structured finite-volume
  conduction for board/module detail models;
* :mod:`~avipack.thermal.convection` — film-coefficient correlations;
* :mod:`~avipack.thermal.radiation` — view factors and gray-body exchange;
* :mod:`~avipack.thermal.transient` — time integration for thermal shock
  and climatic cycling.
"""

from .conduction import (
    ADIABATIC,
    FACES,
    BoundaryCondition,
    CartesianGrid,
    ConductionSolution,
    ConductionSolver,
    TransientConductionResult,
)
from .convection import (
    air_outlet_temperature,
    duct_velocity,
    fin_efficiency,
    forced_convection_conductance,
    forced_convection_duct,
    forced_convection_flat_plate,
    heat_sink_conductance,
    natural_convection_conductance,
    natural_convection_enclosure,
    natural_convection_horizontal_cylinder,
    natural_convection_horizontal_plate_down,
    natural_convection_horizontal_plate_up,
    natural_convection_vertical_plate,
    rayleigh_number,
    reynolds_number,
)
from .enclosure import BOX_FACES, BoxEnclosure
from .network import (
    NetworkSolution,
    ThermalNetwork,
    parallel_resistance,
    series_resistance,
    slab_resistance,
    spreading_resistance,
)
from .radiation import (
    enclosure_exchange_factor,
    linearized_radiation_coefficient,
    radiation_conductance,
    solve_radiosity,
    view_factor_parallel_plates,
    view_factor_perpendicular_plates,
)
from .transient import (
    TransientNetworkResult,
    TransientNetworkSolver,
    cyclic_profile,
    ramp_profile,
)

__all__ = [
    "ADIABATIC",
    "BOX_FACES",
    "BoxEnclosure",
    "BoundaryCondition",
    "CartesianGrid",
    "ConductionSolution",
    "ConductionSolver",
    "FACES",
    "NetworkSolution",
    "ThermalNetwork",
    "TransientConductionResult",
    "TransientNetworkResult",
    "TransientNetworkSolver",
    "air_outlet_temperature",
    "cyclic_profile",
    "duct_velocity",
    "enclosure_exchange_factor",
    "fin_efficiency",
    "forced_convection_conductance",
    "forced_convection_duct",
    "forced_convection_flat_plate",
    "heat_sink_conductance",
    "linearized_radiation_coefficient",
    "natural_convection_conductance",
    "natural_convection_enclosure",
    "natural_convection_horizontal_cylinder",
    "natural_convection_horizontal_plate_down",
    "natural_convection_horizontal_plate_up",
    "natural_convection_vertical_plate",
    "parallel_resistance",
    "radiation_conductance",
    "ramp_profile",
    "rayleigh_number",
    "reynolds_number",
    "series_resistance",
    "slab_resistance",
    "solve_radiosity",
    "spreading_resistance",
    "view_factor_parallel_plates",
    "view_factor_perpendicular_plates",
]
