"""Cooling techniques of Fig. 5 and their first-order performance.

"The main principles ... implemented to cool down the components on a PC
board in the aerospace domain": direct transfer to the fluid (radiation,
free convection, forced air) or conduction to an exchanger (conduction
cooled, air/liquid flow through, air flow around).  Each technique is
modelled as the resistance chain it really is, so the level-1 feasibility
comparison (board ΔT at a given power) can be generated for any module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict

from ..environments.arinc600 import allocated_mass_flow
from ..errors import InputError
from ..materials.fluids import air_properties, water_properties
from ..thermal.convection import (
    duct_velocity,
    forced_convection_duct,
    forced_convection_flat_plate,
    natural_convection_vertical_plate,
)
from ..thermal.radiation import linearized_radiation_coefficient
from ..units import celsius_to_kelvin


class CoolingTechnique(enum.Enum):
    """The cooling principles of Fig. 5."""

    FREE_CONVECTION = "free_convection"
    DIRECT_AIR_FLOW = "direct_air_flow"
    CONDUCTION_COOLED = "conduction_cooled"
    AIR_FLOW_THROUGH = "air_flow_through"
    LIQUID_FLOW_THROUGH = "liquid_flow_through"
    AIR_FLOW_AROUND = "air_flow_around"


#: The Fig. 5 techniques by increasing installation cost and complexity
#: (free convection first): level 1 recommends the first feasible one,
#: and a sweep's cost rank is a technique's position here.
SIMPLICITY_ORDER = (
    CoolingTechnique.FREE_CONVECTION,
    CoolingTechnique.DIRECT_AIR_FLOW,
    CoolingTechnique.AIR_FLOW_AROUND,
    CoolingTechnique.CONDUCTION_COOLED,
    CoolingTechnique.AIR_FLOW_THROUGH,
    CoolingTechnique.LIQUID_FLOW_THROUGH,
)


@dataclass(frozen=True)
class ModuleEnvelope:
    """Geometric envelope of a module/card for cooling evaluation.

    ``board_length`` × ``board_width`` is the dissipating face;
    ``edge_conductance`` the clamped-edge (wedge-lock) conductance per
    edge [W/K]; ``shell_area`` the external wetted area of a sealed shell.
    """

    board_length: float = 0.19
    board_width: float = 0.17
    board_thermal_thickness: float = 2.0e-3
    board_conductivity: float = 120.0
    edge_conductance: float = 5.0
    shell_area: float = 0.10
    shell_emissivity: float = 0.85
    channel_gap: float = 5.0e-3

    def __post_init__(self) -> None:
        for name in ("board_length", "board_width",
                     "board_thermal_thickness", "board_conductivity",
                     "edge_conductance", "shell_area", "channel_gap"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")
        if not 0.0 < self.shell_emissivity <= 1.0:
            raise InputError("emissivity must be in (0, 1]")

    @property
    def board_area(self) -> float:
        """Dissipating face area [m²]."""
        return self.board_length * self.board_width


@dataclass(frozen=True)
class CoolingEvaluation:
    """Outcome of a level-1 cooling feasibility evaluation."""

    technique: CoolingTechnique
    board_temperature: float
    ambient_temperature: float
    film_coefficient: float
    feasible_85c: bool

    @property
    def rise(self) -> float:
        """Board rise over ambient [K]."""
        return self.board_temperature - self.ambient_temperature


def _free_convection_balance(envelope: ModuleEnvelope, power: float,
                             ambient: float, area: float,
                             height: float) -> float:
    """Solve T_s for q = (h_nc(T_s)+h_r(T_s))·A·(T_s − T_amb)."""
    t_surface = ambient + 20.0
    for _ in range(60):
        fluid = air_properties(0.5 * (t_surface + ambient))
        h_nc = natural_convection_vertical_plate(
            fluid, max(t_surface - ambient, 0.1), height)
        h_r = linearized_radiation_coefficient(
            envelope.shell_emissivity, t_surface, ambient)
        t_new = ambient + power / ((h_nc + h_r) * area)
        if abs(t_new - t_surface) < 1e-4:
            return t_new
        t_surface = 0.5 * (t_surface + t_new)
    return t_surface


def evaluate_cooling(technique: CoolingTechnique, power: float,
                     envelope: ModuleEnvelope = ModuleEnvelope(),
                     ambient: float = celsius_to_kelvin(40.0),
                     coolant_inlet: float = celsius_to_kelvin(40.0)
                     ) -> CoolingEvaluation:
    """Board temperature of a module under a given technique at ``power``.

    The feasibility flag compares against the paper's 85 °C ambient rule
    for component environments.
    """
    if power <= 0.0:
        raise InputError("power must be positive")
    if ambient <= 0.0 or coolant_inlet <= 0.0:
        raise InputError("temperatures must be positive kelvin")

    mass_flow = allocated_mass_flow(power)
    fluid = air_properties(coolant_inlet)

    if technique is CoolingTechnique.FREE_CONVECTION:
        shell_t = _free_convection_balance(
            envelope, power, ambient, envelope.shell_area,
            envelope.board_length)
        # Sealed passive box: internal gap + mounts between board and
        # shell add a significant series resistance.
        r_internal = 0.8
        board_t = shell_t + power * r_internal
        h = power / (envelope.shell_area * max(shell_t - ambient, 1e-9))

    elif technique is CoolingTechnique.DIRECT_AIR_FLOW:
        flow_area = envelope.board_width * envelope.channel_gap
        velocity = duct_velocity(mass_flow, fluid, flow_area)
        d_h = (4.0 * flow_area
               / (2.0 * (envelope.board_width + envelope.channel_gap)))
        h = forced_convection_duct(fluid, velocity, d_h)
        outlet = coolant_inlet + power / (mass_flow * fluid.specific_heat)
        # Air washes both board faces in a card channel.
        board_t = 0.5 * (coolant_inlet + outlet) \
            + power / (h * 2.0 * envelope.board_area)

    elif technique is CoolingTechnique.CONDUCTION_COOLED:
        # Uniformly heated plate cooled at two clamped edges: the mean
        # board rise over the edge is Q·L/(12·k·t·W); the centre peak is
        # Q·L/(8·k·t·W).  Use the centre (worst case) plus the wedge locks
        # and the cold-wall film (liquid-cooled cold wall assumed ideal).
        cross = envelope.board_thermal_thickness * envelope.board_width
        r_spread = envelope.board_length / (8.0 * envelope.board_conductivity
                                            * cross)
        r_edges = 1.0 / (2.0 * envelope.edge_conductance)
        board_t = coolant_inlet + power * (r_spread + r_edges)
        h = 1.0 / ((r_spread + r_edges) * envelope.board_area)

    elif technique is CoolingTechnique.AIR_FLOW_THROUGH:
        # Internal finned exchanger in the module shell: effectiveness-NTU
        # with a compact-core conductance plus board-to-shell conduction.
        ua = 18.0 * envelope.board_area / 0.003  # finned core, ~18 W/m2K eq
        ua = min(ua, 60.0)
        ntu = ua / (mass_flow * fluid.specific_heat)
        effectiveness = 1.0 - math.exp(-ntu)
        shell_t = coolant_inlet + power / (
            effectiveness * mass_flow * fluid.specific_heat)
        r_board_shell = 0.25  # drains + shell conduction
        board_t = shell_t + power * r_board_shell
        h = ua / envelope.board_area

    elif technique is CoolingTechnique.LIQUID_FLOW_THROUGH:
        liquid = water_properties(coolant_inlet)
        liquid_flow = 0.01  # kg/s, typical cold-plate loop per module
        velocity = liquid_flow / (liquid.density * 2.0e-5)
        h = forced_convection_duct(liquid, velocity, 3.0e-3)
        outlet = coolant_inlet + power / (liquid_flow
                                          * liquid.specific_heat)
        cold_plate_area = envelope.board_area * 0.6
        plate_t = 0.5 * (coolant_inlet + outlet) \
            + power / (h * cold_plate_area)
        board_t = plate_t + power * 0.15  # board-to-plate drain
        h = min(h, 1e5)

    elif technique is CoolingTechnique.AIR_FLOW_AROUND:
        # Sealed shell washed externally by the allocated air.
        velocity = duct_velocity(mass_flow, fluid,
                                 envelope.channel_gap
                                 * envelope.board_width * 2.0)
        h = forced_convection_flat_plate(fluid, max(velocity, 0.5),
                                         envelope.board_length)
        shell_t = coolant_inlet + power / (h * envelope.shell_area)
        board_t = shell_t + power * 0.3  # internal air gap + mounts
    else:  # pragma: no cover - exhaustive enum
        raise InputError(f"unhandled technique {technique}")

    return CoolingEvaluation(
        technique=technique,
        board_temperature=board_t,
        ambient_temperature=ambient,
        film_coefficient=h,
        feasible_85c=board_t <= celsius_to_kelvin(85.0),
    )


def compare_techniques(power: float,
                       envelope: ModuleEnvelope = ModuleEnvelope(),
                       ambient: float = celsius_to_kelvin(40.0)
                       ) -> Dict[CoolingTechnique, CoolingEvaluation]:
    """Evaluate every technique at ``power`` — the Fig. 5 trade table."""
    return {technique: evaluate_cooling(technique, power, envelope, ambient)
            for technique in CoolingTechnique}


def max_power_for_limit(technique: CoolingTechnique,
                        board_limit: float = celsius_to_kelvin(85.0),
                        envelope: ModuleEnvelope = ModuleEnvelope(),
                        ambient: float = celsius_to_kelvin(40.0)) -> float:
    """Largest power a technique holds below ``board_limit`` [W].

    Bisection over power; the capability number behind the paper's
    "free convection is limited to a few tens of watts" style statements.
    """
    if board_limit <= ambient:
        raise InputError("board limit must exceed ambient")

    def temperature(power: float) -> float:
        return evaluate_cooling(technique, power, envelope,
                                ambient).board_temperature

    lo, hi = 1.0, 2.0
    while temperature(hi) < board_limit and hi < 1e5:
        hi *= 2.0
    if temperature(lo) > board_limit:
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if temperature(mid) < board_limit:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
