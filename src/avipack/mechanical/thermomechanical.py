"""Thermo-mechanical stress: CTE mismatch, warpage and solder strain.

§II of the paper lists "thermo-mechanical induced stress" among the main
causes of failure in airborne equipment.  The classical engineering
models are implemented here:

* **bimaterial (Timoshenko) strip**: curvature and bow of two bonded
  layers under a temperature change — the PCB-on-heatsink,
  die-on-substrate and stiffener-on-board cases;
* **distance-to-neutral-point (DNP) solder shear strain**: the strain a
  corner joint of a surface-mount package sees per thermal cycle, fed to
  the Coffin–Manson life already available in
  :mod:`avipack.mechanical.fatigue`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError


@dataclass(frozen=True)
class Layer:
    """One layer of a bonded bimaterial stack.

    ``thickness`` [m], ``youngs_modulus`` [Pa], ``cte`` [1/K].
    """

    thickness: float
    youngs_modulus: float
    cte: float

    def __post_init__(self) -> None:
        if self.thickness <= 0.0 or self.youngs_modulus <= 0.0:
            raise InputError("thickness and modulus must be positive")
        if self.cte < 0.0:
            raise InputError("CTE must be non-negative")


def bimaterial_curvature(layer_a: Layer, layer_b: Layer,
                         delta_t: float) -> float:
    """Curvature κ of a bonded two-layer strip under ΔT [1/m].

    Timoshenko's 1925 bimetal result:

    .. math::

       \\kappa = \\frac{6 (\\alpha_b - \\alpha_a) \\Delta T (1+m)^2}
                       {h \\left[3(1+m)^2 +
                        (1+mn)\\left(m^2 + \\frac{1}{mn}\\right)\\right]}

    with m = t_a/t_b, n = E_a/E_b and h = t_a + t_b.  Positive κ bends
    towards the lower-CTE layer side when heated.
    """
    m = layer_a.thickness / layer_b.thickness
    n = layer_a.youngs_modulus / layer_b.youngs_modulus
    h = layer_a.thickness + layer_b.thickness
    numerator = 6.0 * (layer_b.cte - layer_a.cte) * delta_t * (1.0 + m) ** 2
    denominator = h * (3.0 * (1.0 + m) ** 2
                       + (1.0 + m * n) * (m * m + 1.0 / (m * n)))
    return numerator / denominator


def bimaterial_bow(layer_a: Layer, layer_b: Layer, delta_t: float,
                   length: float) -> float:
    """Centre bow (sagitta) of a strip of ``length`` under ΔT [m].

    δ = κ·L²/8 for small curvature — the PCB warpage number compared
    against coplanarity limits after reflow or in a cold soak.
    """
    if length <= 0.0:
        raise InputError("length must be positive")
    return bimaterial_curvature(layer_a, layer_b, delta_t) * length ** 2 / 8.0


@dataclass(frozen=True)
class SolderJointAssessment:
    """Thermal-cycling verdict for one surface-mount solder joint."""

    shear_strain: float
    cycles_to_failure: float
    life_years_at_daily_cycles: float

    def survives(self, required_cycles: float) -> bool:
        """True when the predicted life covers ``required_cycles``."""
        if required_cycles <= 0.0:
            raise InputError("required cycles must be positive")
        return self.cycles_to_failure >= required_cycles


def solder_joint_assessment(package_half_diagonal: float,
                            joint_height: float,
                            cte_component: float,
                            cte_board: float,
                            delta_t: float,
                            cycles_per_day: float = 2.0,
                            reference_strain: float = 0.01,
                            reference_cycles: float = 3000.0,
                            exponent: float = 2.0
                            ) -> SolderJointAssessment:
    """Assess a corner solder joint under thermal cycling.

    The DNP (distance-to-neutral-point) shear strain is

    .. math:: \\gamma = \\frac{DNP \\cdot |\\alpha_c - \\alpha_b|
                               \\cdot \\Delta T}{h_{joint}}

    and the life follows a Coffin–Manson power law anchored at
    ``reference_strain`` → ``reference_cycles`` (SAC305 class defaults).

    Parameters
    ----------
    package_half_diagonal:
        DNP of the worst (corner) joint [m].
    joint_height:
        Solder stand-off height [m].
    cte_component, cte_board:
        Expansion coefficients [1/K] (ceramic ~7 ppm, FR-4 ~16 ppm).
    delta_t:
        Cycle temperature swing [K].
    cycles_per_day:
        Mission cycling rate for the life-in-years figure.
    """
    if package_half_diagonal <= 0.0 or joint_height <= 0.0:
        raise InputError("geometry must be positive")
    if delta_t <= 0.0:
        raise InputError("temperature swing must be positive")
    if cycles_per_day <= 0.0:
        raise InputError("cycling rate must be positive")
    strain = (package_half_diagonal * abs(cte_component - cte_board)
              * delta_t / joint_height)
    if strain <= 0.0:
        cycles = float("inf")
    else:
        cycles = reference_cycles * (reference_strain / strain) ** exponent
    years = cycles / (cycles_per_day * 365.0)
    return SolderJointAssessment(
        shear_strain=strain,
        cycles_to_failure=cycles,
        life_years_at_daily_cycles=years,
    )


def underfill_benefit_factor(strain_reduction: float = 0.7,
                             exponent: float = 2.0) -> float:
    """Life multiplication from underfilling a BGA/CSP.

    Underfill shares the shear load and typically cuts the joint strain
    by ~70 %; with a Coffin–Manson exponent of 2 that multiplies life by
    (1/(1−0.7))² ≈ 11×.  Returns the life factor.
    """
    if not 0.0 <= strain_reduction < 1.0:
        raise InputError("strain reduction must be in [0, 1)")
    if exponent <= 0.0:
        raise InputError("exponent must be positive")
    return (1.0 / (1.0 - strain_reduction)) ** exponent
