"""Design-closure advisor: turn violations into concrete design moves.

The design procedure's goal is a product that "responds to the
specification at a minimum cost and in one shot".  When a review comes
back non-compliant, an experienced packaging engineer reaches for a
standard playbook; this module encodes it:

* frequency-allocation miss → compute the bending-rigidity ratio that
  places the mode;
* random-vibration fatigue miss → stiffening and/or isolator options
  with their side effects;
* board over-temperature → escalate the cooling technique via the
  architecture selector, or boost copper content;
* junction over-temperature → local moves (drain, spreader, TIM) ranked
  by intrusiveness;
* MTBF miss → quantify the junction-temperature reduction needed to
  close it through the Arrhenius model.

Each recommendation is a :class:`DesignMove` with a human-readable
action, the quantified parameter change, and the expected effect — the
content of the "action items" slide of a design review.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..errors import InputError
from ..reliability.mtbf import REFERENCE_JUNCTION
from ..units import BOLTZMANN_EV
from .design_flow import DesignReview
from .selector import Architecture, ThermalRequirement, select_architecture


@dataclass(frozen=True)
class DesignMove:
    """One recommended design change.

    ``category`` groups moves ("mechanical", "thermal", "reliability"),
    ``action`` is the human-readable instruction, ``parameter`` and
    ``value`` quantify it and ``intrusiveness`` ranks the cost of the
    change (1 = parameter tweak … 5 = architecture change).
    """

    category: str
    action: str
    parameter: str
    value: float
    intrusiveness: int

    def __post_init__(self) -> None:
        if not 1 <= self.intrusiveness <= 5:
            raise InputError("intrusiveness must be in 1..5")


def advise_cooling_escalation(module_power: float,
                              peak_flux_w_cm2: float,
                              air_available: bool = True
                              ) -> DesignMove:
    """The architecture move for an over-temperature board.

    An over-temperature design by definition outgrew its current
    (simplest) cooling, so the escalation skips free convection and
    recommends the simplest *active/conducted* architecture that fits.
    """
    from .selector import assess

    requirement = ThermalRequirement(
        module_power=module_power,
        peak_flux_w_cm2=peak_flux_w_cm2,
        air_available=air_available)
    architecture = next(
        (a.architecture for a in assess(requirement)
         if a.viable and a.architecture is not
         Architecture.FREE_CONVECTION),
        None)
    if architecture is None:
        architecture = select_architecture(requirement)
    intrusiveness = {
        Architecture.FREE_CONVECTION: 1,
        Architecture.FORCED_AIR: 2,
        Architecture.CONDUCTION_TO_COLDWALL: 3,
        Architecture.HEAT_PIPE_ASSISTED: 3,
        Architecture.THERMOSYPHON: 3,
        Architecture.LOOP_HEAT_PIPE: 4,
        Architecture.LIQUID_COOLING: 5,
    }[architecture]
    return DesignMove(
        category="thermal",
        action=(f"escalate the cooling architecture to "
                f"{architecture.value} for {module_power:.0f} W / "
                f"{peak_flux_w_cm2:.0f} W/cm2"),
        parameter="architecture",
        value=float(intrusiveness),
        intrusiveness=intrusiveness,
    )


def junction_drop_for_mtbf(current_mtbf_hours: float,
                           target_mtbf_hours: float,
                           current_junction: float,
                           activation_energy_ev: float = 0.45) -> float:
    """Junction-temperature reduction that closes an MTBF gap [K].

    Inverts the Arrhenius factor: the failure-rate ratio needed is
    MTBF_target/MTBF_now, and

    .. math:: \\Delta(1/T) = \\frac{k}{E_a} \\ln r \\;\\Rightarrow\\;
              T_{new} = \\left( \\frac{1}{T} + \\frac{k}{E_a}
              \\ln r \\right)^{-1}

    Returns 0 when the target is already met.
    """
    if current_mtbf_hours <= 0.0 or target_mtbf_hours <= 0.0:
        raise InputError("MTBF values must be positive")
    if current_junction <= 0.0:
        raise InputError("junction temperature must be positive kelvin")
    if activation_energy_ev <= 0.0:
        raise InputError("activation energy must be positive")
    if current_mtbf_hours >= target_mtbf_hours:
        return 0.0
    ratio = target_mtbf_hours / current_mtbf_hours
    inv_t_new = (1.0 / current_junction
                 + BOLTZMANN_EV / activation_energy_ev * math.log(ratio))
    t_new = 1.0 / inv_t_new
    return current_junction - t_new


def advise(review: DesignReview,
           module_power: Optional[float] = None,
           peak_flux_w_cm2: float = 5.0) -> List[DesignMove]:
    """Full playbook: one ranked list of moves for a failed review.

    Returns an empty list for a compliant review.  Moves are sorted by
    intrusiveness so the review board sees the cheap fixes first.
    """
    moves: List[DesignMove] = []
    if review.compliant:
        return moves
    spec = review.specification
    mech = review.mechanical

    if not mech.allocation_respected and spec.frequency_allocation:
        # Rebuild a plate surrogate from the review's numbers: advise on
        # stiffening ratio directly (f ~ sqrt(D)).
        target = spec.frequency_allocation.minimum_hz
        ratio = (target / mech.fundamental_hz) ** 2
        moves.append(DesignMove(
            category="mechanical",
            action=(f"stiffen the worst board by x{ratio:.2f} in bending"
                    f" rigidity to move f1 {mech.fundamental_hz:.0f} -> "
                    f"{target:.0f} Hz"),
            parameter="rigidity_ratio",
            value=ratio,
            intrusiveness=2,
        ))

    if mech.fatigue_margin < 0.0:
        # Deflection falls as f^-2-ish: quantify the frequency raise that
        # buys the missing life through the b=6.4 power law.
        deficit = (spec.mission_vibration_hours
                   / max(mech.fatigue_life_hours, 1e-6))
        frequency_factor = deficit ** (1.0 / (2.0 * 6.4 - 1.0))
        moves.append(DesignMove(
            category="mechanical",
            action=(f"raise the board fundamental by x"
                    f"{frequency_factor:.2f} (stiffen/re-support) to "
                    f"recover the x{deficit:.1f} fatigue-life deficit"),
            parameter="frequency_factor",
            value=frequency_factor,
            intrusiveness=2,
        ))

    thermal_violation = (not review.thermal.level2.compliant
                         or any(not l3.compliant
                                for l3 in review.thermal.level3.values()))
    if thermal_violation:
        power = module_power or review.thermal.level1.total_power
        moves.append(advise_cooling_escalation(power, peak_flux_w_cm2))
        moves.append(DesignMove(
            category="thermal",
            action="increase board copper coverage/layer count to "
                   "spread component heat (level-3 local fix)",
            parameter="copper_coverage",
            value=0.8,
            intrusiveness=1,
        ))

    if (review.mtbf_hours is not None
            and review.mtbf_hours < spec.mtbf_target_hours):
        worst_junction = max(
            (t for l3 in review.thermal.level3.values()
             for t in l3.junction_temperatures.values()),
            default=REFERENCE_JUNCTION)
        drop = junction_drop_for_mtbf(review.mtbf_hours,
                                      spec.mtbf_target_hours,
                                      worst_junction)
        moves.append(DesignMove(
            category="reliability",
            action=(f"cool the worst junction by {drop:.0f} K to close "
                    f"the MTBF gap {review.mtbf_hours:.0f} -> "
                    f"{spec.mtbf_target_hours:.0f} h through Arrhenius"),
            parameter="junction_drop_k",
            value=drop,
            intrusiveness=2,
        ))

    moves.sort(key=lambda move: move.intrusiveness)
    return moves
