"""E4 — Fig. 5: cooling modes comparison.

Evaluates the Fig. 5 cooling principles (direct air flow, conduction
cooled, air/liquid flow through, air flow around, plus the free-
convection baseline) on the same 60 W module, prints the board
temperature per technique, and checks the capability ladder the paper's
survey implies: free convection < forced air < flow-through < liquid.
"""

from avipack.packaging.cooling import (
    CoolingTechnique,
    compare_techniques,
    max_power_for_limit,
)
from avipack.units import kelvin_to_celsius

from conftest import fmt, print_table

MODULE_POWER = 60.0  # the paper's "next developments" module class


def test_fig05_cooling_modes(benchmark):
    results = benchmark.pedantic(
        lambda: compare_techniques(MODULE_POWER), rounds=1, iterations=1)

    rows = []
    for technique, evaluation in results.items():
        rows.append((
            technique.value,
            fmt(kelvin_to_celsius(evaluation.board_temperature)),
            fmt(evaluation.rise),
            "yes" if evaluation.feasible_85c else "NO",
        ))
    rows.sort(key=lambda row: float(row[2]))
    print_table(
        f"Fig. 5 - cooling modes at {MODULE_POWER:.0f} W/module",
        ("technique", "board [degC]", "rise [K]", "feasible (85C)"),
        rows)

    rises = {tech: ev.rise for tech, ev in results.items()}
    # Shape 1: the survey's ladder.
    assert rises[CoolingTechnique.FREE_CONVECTION] \
        > rises[CoolingTechnique.DIRECT_AIR_FLOW]
    assert rises[CoolingTechnique.DIRECT_AIR_FLOW] \
        > rises[CoolingTechnique.LIQUID_FLOW_THROUGH]
    # Shape 2: free convection cannot hold a 60 W module.
    assert not results[CoolingTechnique.FREE_CONVECTION].feasible_85c
    # Shape 3: at least one air technique and the liquid technique can.
    assert results[CoolingTechnique.LIQUID_FLOW_THROUGH].feasible_85c
    assert any(results[t].feasible_85c
               for t in (CoolingTechnique.DIRECT_AIR_FLOW,
                         CoolingTechnique.AIR_FLOW_THROUGH,
                         CoolingTechnique.CONDUCTION_COOLED))


def test_fig05_capability_ladder(benchmark):
    techniques = (CoolingTechnique.FREE_CONVECTION,
                  CoolingTechnique.DIRECT_AIR_FLOW,
                  CoolingTechnique.AIR_FLOW_THROUGH,
                  CoolingTechnique.LIQUID_FLOW_THROUGH)

    capabilities = benchmark.pedantic(
        lambda: {t: max_power_for_limit(t) for t in techniques},
        rounds=1, iterations=1)

    print_table(
        "Fig. 5 - maximum module power per technique (board <= 85 degC)",
        ("technique", "max power [W]"),
        [(t.value, fmt(p, 0)) for t, p in capabilities.items()])

    ladder = [capabilities[t] for t in techniques]
    # Shape: strictly increasing capability along the ladder.
    assert ladder == sorted(ladder)
    # Free convection tops out at a few tens of watts (the paper's reason
    # the SEB needed two-phase systems, not fans, at 40-100 W).
    assert capabilities[CoolingTechnique.FREE_CONVECTION] < 50.0
    assert capabilities[CoolingTechnique.LIQUID_FLOW_THROUGH] > 200.0
