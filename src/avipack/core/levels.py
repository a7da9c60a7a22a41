"""The three-level thermal simulation pyramid of Fig. 4.

"Basically, we consider three levels for the simulation which correspond
to the three phases of the design":

* **Level 1 — equipment, preliminary design**: the rack's external
  constraints only; PCBs are volumetric sources.  Output: cooling-
  technology feasibility.
* **Level 2 — PCB, preliminary + detailed design**: boards represented,
  functional areas as dissipative surfaces.  Output: board temperatures,
  copper/drain/wedge-lock optimisation.
* **Level 3 — component, detailed design + validation**: every
  dissipating component with its package model.  Output: junction
  temperatures, fed to the safety and reliability calculations.

Each level consumes the previous level's boundary result, exactly as the
industrial flow hands temperatures down the pyramid.

Every runner optionally accepts a ``cache`` — any object exposing
``get_or_compute(key, compute)``, typically an
:class:`avipack.sweep.cache.SolverCache` — keyed on a stable content
fingerprint of the inputs, so a design-space sweep reaching the same
sub-problem from different candidates computes it once.

Level 3 runs once per module, but the modules of a rack usually carry
one board, each at its own slot temperature.  The board problem is
linear, so a junction at boundary ``T_b`` is ``T_b`` plus a rise that
does not depend on ``T_b``: the rise is solved and cached once per
distinct board and film coefficient, and every slot adds its own
boundary.  :func:`run_pyramid` wraps each distinct board object in a
:class:`Level3Board`, so its content digest and level-3 key are hashed
once and its detail model is built once, however many slots use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..packaging.cooling import (
    SIMPLICITY_ORDER,
    CoolingTechnique,
    ModuleEnvelope,
    compare_techniques,
)
from ..packaging.pcb import Pcb, PcbDetailModel
from ..packaging.rack import Rack, SlotResult
from ..resilience.faults import fire as _fire_fault
from ..resilience.policy import NO_SUPERVISION
from ..resilience.supervisor import Supervisor
from ..units import celsius_to_kelvin

#: The paper's component environment ceiling (85 degC ambient rule).
BOARD_LIMIT = celsius_to_kelvin(85.0)

#: The paper's junction ceiling (125 degC rule).
JUNCTION_LIMIT = celsius_to_kelvin(125.0)


@dataclass(frozen=True)
class Level1Result:
    """Equipment-level feasibility outcome."""

    total_power: float
    technique_rises: Dict[CoolingTechnique, float]
    feasible_techniques: Tuple[CoolingTechnique, ...]
    recommended: Optional[CoolingTechnique]

    @property
    def is_feasible(self) -> bool:
        """True when at least one technique keeps the boards legal."""
        return bool(self.feasible_techniques)


def run_level1(total_power: float,
               envelope: ModuleEnvelope = ModuleEnvelope(),
               ambient: float = celsius_to_kelvin(40.0),
               cache=None) -> Level1Result:
    """Level-1: volumetric-source feasibility scan over cooling options.

    Ranks the Fig. 5 techniques by simplicity (free convection first) and
    recommends the simplest feasible one — the "select the most
    appropriate cooling technology given a level of power" decision.
    ``cache`` memoises the full scan under a content key.
    """
    if total_power <= 0.0:
        raise InputError("total power must be positive")
    if cache is not None:
        key = stable_fingerprint("level1", total_power, envelope, ambient)
        return cache.get_or_compute(
            key, lambda: run_level1(total_power, envelope, ambient))
    evaluations = compare_techniques(total_power, envelope, ambient)
    rises = {tech: ev.rise for tech, ev in evaluations.items()}
    feasible = tuple(tech for tech in SIMPLICITY_ORDER
                     if evaluations[tech].feasible_85c)
    recommended = feasible[0] if feasible else None
    return Level1Result(
        total_power=total_power,
        technique_rises=rises,
        feasible_techniques=feasible,
        recommended=recommended,
    )


@dataclass(frozen=True)
class Level2Result:
    """PCB-level outcome: board temperatures per slot."""

    slots: Tuple[SlotResult, ...]
    worst_board_temperature: float
    compliant: bool

    def board_temperature(self, module_name: str) -> float:
        """Board temperature of a named module [K]."""
        for slot in self.slots:
            if slot.module_name == module_name:
                return slot.board_temperature
        raise InputError(f"no module named {module_name!r} in the rack")


def run_level2(rack: Rack,
               board_limit: float = BOARD_LIMIT,
               cache=None) -> Level2Result:
    """Level-2: boards as dissipative surfaces in the rack airflow.

    ``cache`` memoises the result under a fingerprint of exactly the
    state the airflow solve reads (slot names and powers, channel
    geometry, supply temperature, plenum layout), so sweep candidates
    differing only in non-airflow choices (TIM, declared cooling mode)
    share one solve.
    """
    _fire_fault("levels.level2")
    if cache is not None:
        key = stable_fingerprint(
            "level2",
            tuple((module.name, module.power) for module in rack.modules),
            rack.channel, rack.supply_temperature, rack.series_fraction,
            board_limit)
        return cache.get_or_compute(key, lambda: run_level2(rack,
                                                            board_limit))
    slots = tuple(rack.solve())
    worst = max(slot.board_temperature for slot in slots)
    return Level2Result(slots=slots, worst_board_temperature=worst,
                        compliant=worst <= board_limit)


@dataclass(frozen=True)
class Level3Result:
    """Component-level outcome: junction temperatures.

    ``degraded`` is True when the result was produced at level-2
    fidelity (junctions estimated from the board boundary through the
    package R_jb, without the detailed board spreading solve) because
    the level-3 solve failed and the supervision policy chose graceful
    degradation over losing the candidate.
    """

    junction_temperatures: Dict[str, float]
    max_junction: float
    violations: Tuple[str, ...]
    degraded: bool = False

    @property
    def compliant(self) -> bool:
        """True when every junction respects the 125 degC rule."""
        return not self.violations


class Level3Board:
    """One populated board prepared for level-3 solves at many boundaries.

    ``digest`` (``stable_fingerprint(pcb)``) is hashed on first use, the
    level-3 cache key once per film coefficient, and the
    :class:`~avipack.packaging.pcb.PcbDetailModel` is built on the first
    solve that misses the cache; all are then shared by every module
    slot holding the same :class:`Pcb` object.  Like the detail model,
    it is a snapshot of the board.
    """

    def __init__(self, pcb: Pcb) -> None:
        self.pcb = pcb
        self._keys: Dict[float, str] = {}

    @cached_property
    def digest(self) -> str:
        """Content digest of the board."""
        return stable_fingerprint(self.pcb)

    @cached_property
    def detail_model(self) -> PcbDetailModel:
        """The board's detail model, built on first use."""
        return PcbDetailModel(self.pcb)

    def level3_key(self, h_film: float) -> str:
        """Cache key of the board's junction rises under ``h_film``."""
        key = self._keys.get(h_film)
        if key is None:
            key = self._keys[h_film] = stable_fingerprint(
                "level3", self.digest, h_film)
        return key

    def junction_rises(self, h_film: float, cache=None
                       ) -> Tuple[Tuple[str, float], ...]:
        """``(name, rise)`` per component above the film ambient [K]."""
        if cache is None:
            return self.detail_model.junction_rises(h_film, h_film)
        return cache.get_or_compute(
            self.level3_key(h_film),
            lambda: self.detail_model.junction_rises(h_film, h_film))


def run_level3(pcb: Union[Pcb, Level3Board],
               board_boundary_temperature: float,
               h_film: float = 15.0,
               junction_limit: float = JUNCTION_LIMIT,
               cache=None) -> Level3Result:
    """Level-3: detailed board solve with discrete component footprints.

    ``board_boundary_temperature`` is the level-2 air/wall boundary handed
    down the pyramid; the board is solved with film cooling on both faces
    against it, and each junction follows from the local board temperature
    through the package model.  ``pcb`` is the board, or its
    :class:`Level3Board` when the caller solves it at several boundaries.

    The board is solved once per film coefficient for its junction
    rises above the ambient (:meth:`PcbDetailModel.junction_rises`);
    this call adds ``board_boundary_temperature`` and checks each
    junction against ``junction_limit``.  ``cache`` memoises the rises
    under ``stable_fingerprint("level3", board digest, h_film)``, so
    every slot and every sweep candidate carrying an equal board shares
    one solve, whatever its boundary.
    """
    _fire_fault("levels.level3")
    if board_boundary_temperature <= 0.0:
        raise InputError("boundary temperature must be positive kelvin")
    board = pcb if isinstance(pcb, Level3Board) else Level3Board(pcb)
    if not board.pcb.components:
        raise InputError("level-3 needs a populated board")
    junctions = {name: board_boundary_temperature + rise
                 for name, rise in board.junction_rises(h_film, cache)}
    violations = tuple(
        name for name, t_j in sorted(junctions.items())
        if t_j > junction_limit)
    return Level3Result(
        junction_temperatures=junctions,
        max_junction=max(junctions.values()),
        violations=violations,
    )


def degraded_level3(pcb: Pcb, board_boundary_temperature: float,
                    junction_limit: float = JUNCTION_LIMIT) -> Level3Result:
    """Level-2-fidelity fallback for a failed level-3 solve.

    Estimates every junction as the board boundary temperature plus the
    package's junction-to-board rise (P·R_jb) — the same data level 2
    already owns, with no board spreading solve.  The result is flagged
    ``degraded=True`` so reports and sweeps can surface that the
    candidate survived at reduced fidelity.
    """
    if board_boundary_temperature <= 0.0:
        raise InputError("boundary temperature must be positive kelvin")
    if not pcb.components:
        raise InputError("level-3 needs a populated board")
    junctions = {
        component.name:
        component.junction_temperature_from_board(board_boundary_temperature)
        for component in pcb.components}
    violations = tuple(name for name, t_j in sorted(junctions.items())
                       if t_j > junction_limit)
    return Level3Result(
        junction_temperatures=junctions,
        max_junction=max(junctions.values()),
        violations=violations,
        degraded=True,
    )


@dataclass(frozen=True)
class PyramidResult:
    """Full three-level run, level by level."""

    level1: Level1Result
    level2: Level2Result
    level3: Dict[str, Level3Result]

    @property
    def compliant(self) -> bool:
        """Design passes when every level passes."""
        return (self.level1.is_feasible and self.level2.compliant
                and all(result.compliant
                        for result in self.level3.values()))

    @property
    def degraded(self) -> bool:
        """True when any level-3 result ran at reduced fidelity."""
        return any(result.degraded for result in self.level3.values())


def run_pyramid(rack: Rack,
                ambient: float = celsius_to_kelvin(40.0),
                cache=None,
                envelope: Optional[ModuleEnvelope] = None,
                supervisor=None) -> PyramidResult:
    """Run the full Fig. 4 pyramid on a rack.

    Level 1 checks the rack total power; level 2 resolves per-slot board
    temperatures; level 3 runs on every module that has a populated PCB,
    using its slot's mean air temperature as the boundary.  Modules
    holding the same :class:`Pcb` object share one :class:`Level3Board`
    (one digest, one detail model, one rise solve per film coefficient);
    each slot still makes its own supervised level-3 call.  ``cache`` is
    threaded through every level's runner.  ``envelope`` overrides the
    level-1 cooling envelope (default: the standard module envelope, as
    the preliminary-design scan has always assumed).

    ``supervisor`` (an :class:`avipack.resilience.Supervisor`) wraps
    the iterative levels with the campaign's recovery policy: transient
    :class:`~avipack.errors.ConvergenceError` at level 2/3 is retried,
    and a level-3 component solve that stays broken degrades to
    :func:`degraded_level3` when the policy allows — each attempt
    recorded on the supervisor's recovery trails.  ``None`` uses a
    fresh ``Supervisor(NO_SUPERVISION)``: one attempt per level, and
    failures propagate as raised.
    """
    if envelope is None:
        envelope = ModuleEnvelope()
    level1 = run_level1(max(rack.total_power, 1e-9), envelope=envelope,
                        ambient=ambient, cache=cache)
    if supervisor is None:
        supervisor = Supervisor(NO_SUPERVISION)
    level2 = supervisor.call(
        "levels.level2", lambda: run_level2(rack, cache=cache))
    level3: Dict[str, Level3Result] = {}
    boards: Dict[int, Level3Board] = {}
    for module, slot in zip(rack.modules, level2.slots, strict=True):
        if module.pcb is None or not module.pcb.components:
            continue
        board = boards.get(id(module.pcb))
        if board is None:
            board = boards[id(module.pcb)] = Level3Board(module.pcb)
        boundary = 0.5 * (slot.inlet_temperature
                          + slot.outlet_temperature)

        def compute(board=board, b=boundary):
            return run_level3(board, b, cache=cache)

        fallback = None
        if supervisor.policy.degrade_level3:
            def fallback(_exc, pcb=module.pcb, b=boundary):
                return degraded_level3(pcb, b)

        level3[module.name] = supervisor.call(
            f"levels.level3[{module.name}]", compute, fallback=fallback)
    return PyramidResult(level1=level1, level2=level2, level3=level3)
