"""Cooling-technology selection: the architecture decision of the flow.

Turns the paper's qualitative guidance into an explicit decision
procedure.  Given the power class, hot-spot flux, environment and
constraints (sealed equipment, available air, orientation stability), it
returns a ranked list of viable architectures, flagging when standard
forced air is no longer applicable and a two-phase system is required —
the paper's central message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..errors import InputError
from ..units import celsius_to_kelvin


class Architecture(enum.Enum):
    """Candidate cooling architectures."""

    FREE_CONVECTION = "free_convection"
    FORCED_AIR = "forced_air"
    CONDUCTION_TO_COLDWALL = "conduction_to_coldwall"
    HEAT_PIPE_ASSISTED = "heat_pipe_assisted"
    LOOP_HEAT_PIPE = "loop_heat_pipe"
    THERMOSYPHON = "thermosyphon"
    LIQUID_COOLING = "liquid_cooling"


@dataclass(frozen=True)
class ThermalRequirement:
    """The specification inputs to the architecture decision.

    Parameters
    ----------
    module_power:
        Dissipation per module/board [W].
    peak_flux_w_cm2:
        Worst local heat flux [W/cm²].
    air_available:
        True when the platform provides ECS cooling air (ARINC 600).
    sealed:
        True for sealed equipment (dust/fluid resistance) — rules out
        direct air over the electronics.
    orientation_stable:
        True when the equipment keeps a fixed attitude (false for
        aerobatic/missile applications) — gravity-driven thermosyphons
        need it.
    transport_distance:
        Distance from source to usable sink [m]; long distances favour
        LHPs.
    ambient:
        Environment temperature [K].
    """

    module_power: float
    peak_flux_w_cm2: float = 5.0
    air_available: bool = True
    sealed: bool = False
    orientation_stable: bool = True
    transport_distance: float = 0.1
    ambient: float = celsius_to_kelvin(40.0)
    coldwall_available: bool = True

    def __post_init__(self) -> None:
        if self.module_power <= 0.0:
            raise InputError("module power must be positive")
        if self.peak_flux_w_cm2 < 0.0:
            raise InputError("peak flux must be non-negative")
        if self.transport_distance < 0.0:
            raise InputError("transport distance must be non-negative")
        if self.ambient <= 0.0:
            raise InputError("ambient must be positive kelvin")


@dataclass(frozen=True)
class ArchitectureAssessment:
    """Verdict on one architecture."""

    architecture: Architecture
    viable: bool
    complexity: int           # 1 (simple) .. 5 (complex/expensive)
    reasons: Tuple[str, ...]


#: Capability envelope per architecture:
#: (max module power W, max local flux W/cm², complexity).
_ENVELOPES = {
    Architecture.FREE_CONVECTION: (25.0, 2.0, 1),
    Architecture.FORCED_AIR: (100.0, 10.0, 2),
    Architecture.CONDUCTION_TO_COLDWALL: (150.0, 25.0, 2),
    Architecture.HEAT_PIPE_ASSISTED: (250.0, 60.0, 3),
    Architecture.THERMOSYPHON: (300.0, 40.0, 3),
    Architecture.LOOP_HEAT_PIPE: (500.0, 80.0, 4),
    Architecture.LIQUID_COOLING: (2000.0, 150.0, 5),
}


def assess(requirement: ThermalRequirement) -> List[ArchitectureAssessment]:
    """Assess every architecture against a requirement, ranked.

    Viable architectures come first, ordered by complexity (prefer
    simple); each verdict carries human-readable reasons, which the design
    report quotes.
    """
    assessments: List[ArchitectureAssessment] = []
    for architecture, (max_power, max_flux, complexity) in \
            _ENVELOPES.items():
        reasons: List[str] = []
        viable = True
        if requirement.module_power > max_power:
            viable = False
            reasons.append(
                f"power {requirement.module_power:.0f} W exceeds the "
                f"~{max_power:.0f} W envelope")
        if requirement.peak_flux_w_cm2 > max_flux:
            viable = False
            reasons.append(
                f"local flux {requirement.peak_flux_w_cm2:.0f} W/cm2 "
                f"exceeds the ~{max_flux:.0f} W/cm2 envelope")
        if architecture in (Architecture.FORCED_AIR,) \
                and not requirement.air_available:
            viable = False
            reasons.append("no ECS cooling air at this location")
        if architecture is Architecture.FORCED_AIR and requirement.sealed:
            viable = False
            reasons.append("sealed equipment excludes direct air flow")
        if architecture is Architecture.THERMOSYPHON \
                and not requirement.orientation_stable:
            viable = False
            reasons.append("gravity return needs a stable orientation")
        if (architecture is Architecture.THERMOSYPHON
                and requirement.transport_distance > 0.3):
            viable = False
            reasons.append(
                "long horizontal transport needs capillary pumping (LHP)")
        if (architecture in (Architecture.CONDUCTION_TO_COLDWALL,
                             Architecture.LIQUID_COOLING)
                and not requirement.coldwall_available):
            viable = False
            reasons.append(
                "no cold wall / liquid loop provision at this location")
        if architecture is Architecture.FREE_CONVECTION \
                and requirement.ambient > celsius_to_kelvin(70.0):
            viable = False
            reasons.append("ambient too hot for pure free convection")
        if (architecture is Architecture.HEAT_PIPE_ASSISTED
                and requirement.transport_distance > 0.5):
            viable = False
            reasons.append(
                "transport distance beyond conventional heat pipes; "
                "use a loop heat pipe")
        if viable and not reasons:
            reasons.append("within capability envelope")
        assessments.append(ArchitectureAssessment(
            architecture=architecture, viable=viable,
            complexity=complexity, reasons=tuple(reasons)))
    assessments.sort(key=lambda item: (not item.viable, item.complexity))
    return assessments


def select_architecture(requirement: ThermalRequirement) -> Architecture:
    """The simplest viable architecture.

    Raises :class:`InputError` when nothing fits (the requirement itself
    must change — the paper's "no longer applicable" situation).
    """
    ranked = assess(requirement)
    for assessment in ranked:
        if assessment.viable:
            return assessment.architecture
    raise InputError(
        "no cooling architecture satisfies the requirement: "
        + "; ".join(f"{a.architecture.value}: {', '.join(a.reasons)}"
                    for a in ranked))


def forced_air_no_longer_applicable(requirement: ThermalRequirement) -> bool:
    """The paper's headline predicate.

    True when neither free convection nor standard forced air is viable —
    i.e. novel (two-phase or liquid) technologies are mandatory.
    """
    ranked = {a.architecture: a for a in assess(requirement)}
    return (not ranked[Architecture.FREE_CONVECTION].viable
            and not ranked[Architecture.FORCED_AIR].viable)
