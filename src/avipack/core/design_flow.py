"""The packaging design procedure of Fig. 1.

"SPECIFICATION ANALYSIS → {thermal design (simu/exp), mechanical design
(simu/exp)} → PACKAGING DESIGN DOCUMENT."  The mechanical and thermal
branches run **in parallel** against the same specification, each
producing margins; the document collects them.

The flow object here is deliberately close to the industrial artefact:

* a :class:`PackagingSpecification` captures the requirement set — the
  environment (DO-160 category + vibration curve), the frequency-
  allocation plan, the power budget, and the acceptance rules (85 °C
  board / 125 °C junction / 40 000 h MTBF);
* :func:`run_thermal_branch` executes the level-1/2/3 pyramid;
* :func:`run_mechanical_branch` places the first mode per the frequency
  plan and closes the random-vibration fatigue margins;
* :func:`run_design_procedure` runs both and emits a
  :class:`DesignReview` with the pass/fail verdict and every margin —
  the "design at a minimum cost and in one shot" objective.

Both branch runners are plain module-level functions (hence picklable
for process-pool sweeps) and accept an optional solver ``cache`` (any
object with ``get_or_compute(key, compute)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..environments.do160 import (
    TemperatureCategory,
    temperature_category,
    vibration_curve,
)
from ..errors import InputError, SpecificationError
from ..fingerprint import stable_fingerprint
from ..mechanical.fatigue import (
    fatigue_life_hours,
    margin_of_safety,
    steinberg_allowable_deflection,
)
from ..mechanical.plate import fundamental_frequency
from ..mechanical.random_vibration import (
    default_q_factor,
    miles_rms_acceleration,
    rms_displacement_from_acceleration,
)
from ..packaging.rack import Rack
from ..reliability.mtbf import PartReliability, predict_mtbf
from ..units import celsius_to_kelvin
from .levels import PyramidResult, run_pyramid


@dataclass(frozen=True)
class FrequencyAllocation:
    """The carrier's frequency-allocation plan for one equipment.

    The Ariane navigation unit example: the power supply's main resonant
    mode must land "around 500 Hz as specified in the initial frequency
    allocation plan" — i.e. inside [minimum_hz, maximum_hz].
    """

    minimum_hz: float
    maximum_hz: float

    def __post_init__(self) -> None:
        if not 0.0 < self.minimum_hz < self.maximum_hz:
            raise InputError("need 0 < minimum < maximum frequency")

    def contains(self, frequency: float) -> bool:
        """True when ``frequency`` respects the plan."""
        return self.minimum_hz <= frequency <= self.maximum_hz

    @property
    def center(self) -> float:
        """Plan centre frequency [Hz]."""
        return 0.5 * (self.minimum_hz + self.maximum_hz)


@dataclass(frozen=True)
class PackagingSpecification:
    """The requirement set a packaging design must meet."""

    name: str
    temperature_category_name: str = "A1"
    vibration_curve_name: str = "C1"
    frequency_allocation: Optional[FrequencyAllocation] = None
    board_limit: float = celsius_to_kelvin(85.0)
    junction_limit: float = celsius_to_kelvin(125.0)
    mtbf_target_hours: float = 40_000.0
    mission_vibration_hours: float = 10_000.0

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("specification name must be non-empty")
        temperature_category(self.temperature_category_name)  # validates
        vibration_curve(self.vibration_curve_name)             # validates
        if self.board_limit <= 0.0 or self.junction_limit <= 0.0:
            raise InputError("temperature limits must be positive kelvin")
        if self.mtbf_target_hours <= 0.0:
            raise InputError("MTBF target must be positive")
        if self.mission_vibration_hours <= 0.0:
            raise InputError("mission vibration time must be positive")

    @property
    def category(self) -> TemperatureCategory:
        """The resolved DO-160 temperature category."""
        return temperature_category(self.temperature_category_name)


@dataclass(frozen=True)
class MechanicalReview:
    """Outcome of the mechanical branch."""

    fundamental_hz: float
    allocation_respected: bool
    response_rms_g: float
    rms_deflection: float
    allowable_deflection: float
    fatigue_life_hours: float
    fatigue_margin: float
    deflection_margin: float

    @property
    def compliant(self) -> bool:
        """Pass when the plan is respected and fatigue life covers the
        mission."""
        return self.allocation_respected and self.fatigue_margin >= 0.0


def run_mechanical_branch(rack: Rack, spec: PackagingSpecification,
                          critical_component_length: float = 0.02,
                          critical_component_type: str = "smt_gullwing",
                          cache=None) -> MechanicalReview:
    """Modal placement + random-vibration fatigue for the worst board.

    The worst board is the one with the lowest fundamental frequency
    (softest, hence largest deflections).  Each distinct :class:`Pcb`
    object is idealised once, in slot order, however many modules carry
    it.  ``cache`` memoises the review under a fingerprint of exactly
    what the branch reads: those structural plates and the
    specification's vibration requirements.
    """
    pcbs = {id(module.pcb): module.pcb for module in rack.modules
            if module.pcb is not None}
    boards = [pcb.as_plate() for pcb in pcbs.values()]
    if not boards:
        raise InputError("mechanical branch needs at least one real PCB")
    if cache is not None:
        key = stable_fingerprint(
            "mechanical", tuple(boards), spec.vibration_curve_name,
            spec.frequency_allocation, spec.mission_vibration_hours,
            critical_component_length, critical_component_type)
        return cache.get_or_compute(
            key, lambda: run_mechanical_branch(
                rack, spec, critical_component_length,
                critical_component_type))
    plate = min(boards, key=fundamental_frequency)
    f_1 = fundamental_frequency(plate)
    allocation_ok = (spec.frequency_allocation is None
                     or spec.frequency_allocation.contains(f_1))
    psd = vibration_curve(spec.vibration_curve_name)
    q = default_q_factor(f_1)
    rms_g = miles_rms_acceleration(f_1, q, psd)
    rms_z = rms_displacement_from_acceleration(rms_g, f_1)
    allowable = steinberg_allowable_deflection(
        plate.length, critical_component_length, critical_component_type,
        board_thickness=plate.thickness)
    life = fatigue_life_hours(rms_z, allowable, f_1)
    fatigue_margin = (life / spec.mission_vibration_hours - 1.0
                      if math.isfinite(life) else float("inf"))
    deflection_margin = margin_of_safety(3.0 * rms_z, allowable)
    return MechanicalReview(
        fundamental_hz=f_1,
        allocation_respected=allocation_ok,
        response_rms_g=rms_g,
        rms_deflection=rms_z,
        allowable_deflection=allowable,
        fatigue_life_hours=life,
        fatigue_margin=fatigue_margin,
        deflection_margin=deflection_margin,
    )


def run_thermal_branch(rack: Rack, spec: PackagingSpecification,
                       cache=None, supervisor=None) -> PyramidResult:
    """Thermal branch of Fig. 1: the level-1/2/3 pyramid for a spec.

    Runs the pyramid at the specification's worst-case operating
    ambient, using the first module's cooling envelope for the level-1
    technique scan (every rack the library builds is homogeneous; the
    standard envelope is used for bare racks).  ``supervisor`` (an
    :class:`avipack.resilience.Supervisor`, optional) applies the
    campaign's retry/degradation policy to the iterative levels.
    """
    envelope = rack.modules[0].envelope if rack.modules else None
    return run_pyramid(rack, ambient=spec.category.operating_high,
                       cache=cache, envelope=envelope,
                       supervisor=supervisor)


@dataclass(frozen=True)
class DesignReview:
    """The packaging design document's verdict block."""

    specification: PackagingSpecification
    thermal: PyramidResult
    mechanical: MechanicalReview
    mtbf_hours: Optional[float]
    violations: Tuple[str, ...]

    @property
    def compliant(self) -> bool:
        """One-shot success: every branch green."""
        return not self.violations


def run_design_procedure(rack: Rack, spec: PackagingSpecification,
                         parts: Optional[List[PartReliability]] = None,
                         strict: bool = False,
                         cache=None,
                         supervisor=None) -> DesignReview:
    """Run the full Fig. 1 procedure on a rack against a specification.

    ``parts`` (optional) enables the reliability roll-up using the
    level-3 junction temperatures.  With ``strict=True`` a non-compliant
    design raises :class:`SpecificationError` instead of returning.

    ``cache`` memoises solver sub-results across calls (see
    :mod:`avipack.sweep.cache`).

    ``supervisor`` (an :class:`avipack.resilience.Supervisor`, optional)
    applies the campaign's retry/escalation/degradation policy to the
    thermal branch — the paper's iterate-until-compliant loop made
    survivable.
    """
    thermal = run_thermal_branch(rack, spec, cache=cache,
                                 supervisor=supervisor)
    mechanical = run_mechanical_branch(rack, spec, cache=cache)
    violations: List[str] = []
    if not thermal.level1.is_feasible:
        violations.append("level1: no feasible cooling technique")
    if not thermal.level2.compliant:
        violations.append(
            f"level2: worst board "
            f"{thermal.level2.worst_board_temperature - 273.15:.0f} degC "
            f"exceeds {spec.board_limit - 273.15:.0f} degC")
    for module_name, level3 in thermal.level3.items():
        for part in level3.violations:
            violations.append(
                f"level3: {module_name}/{part} junction over "
                f"{spec.junction_limit - 273.15:.0f} degC")
    if not mechanical.allocation_respected:
        violations.append(
            f"mechanical: fundamental {mechanical.fundamental_hz:.0f} Hz "
            "violates the frequency-allocation plan")
    if mechanical.fatigue_margin < 0.0:
        violations.append(
            f"mechanical: fatigue life {mechanical.fatigue_life_hours:.0f} "
            f"h below the {spec.mission_vibration_hours:.0f} h mission")

    mtbf_hours: Optional[float] = None
    if parts:
        junctions: Dict[str, float] = {}
        for level3 in thermal.level3.values():
            junctions.update(level3.junction_temperatures)
        prediction = predict_mtbf(parts, junctions)
        mtbf_hours = prediction.mtbf_hours
        if mtbf_hours < spec.mtbf_target_hours:
            violations.append(
                f"reliability: MTBF {mtbf_hours:.0f} h below the "
                f"{spec.mtbf_target_hours:.0f} h target")
        violations.extend("reliability: " + violation
                          for violation in prediction.derating_violations)

    review = DesignReview(
        specification=spec,
        thermal=thermal,
        mechanical=mechanical,
        mtbf_hours=mtbf_hours,
        violations=tuple(violations),
    )
    if strict and violations:
        raise SpecificationError(
            f"design {spec.name!r} violates its specification",
            violations=tuple(violations))
    return review
