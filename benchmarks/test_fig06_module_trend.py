"""E5 — Fig. 6 + §III trend: forced-air computer racks across module
generations.

"The thermal dissipation still increases: from 10 W/module, it will
reach 20/30 W/module in the near future and 60 W/module in the next
developments.  In the same time, the module sizes are reduced or at the
best remain unchanged."

The bench runs a 6-slot forced-air rack at each generation's module
power under its ARINC 600 allocation, prints the per-generation rows,
and checks the squeeze: rising board temperatures and heat fluxes in a
constant envelope, with the 60 W generation breaching the 85 °C rule.
"""

from avipack.environments.arinc600 import module_performance
from avipack.packaging.module import module_generation
from avipack.packaging.rack import computer_rack
from avipack.units import celsius_to_kelvin, kelvin_to_celsius

from conftest import fmt, print_table

GENERATIONS = ("current", "near_future", "next")


def test_fig06_module_generations(benchmark):
    def run():
        outcome = {}
        for generation in GENERATIONS:
            module = module_generation(generation)
            rack = computer_rack(6, module.power,
                                 name=f"rack_{generation}")
            outcome[generation] = (module, rack.worst_slot(),
                                   rack.feasible())
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for generation in GENERATIONS:
        module, worst, feasible = outcome[generation]
        performance = module_performance(module.power)
        rows.append((
            generation,
            fmt(module.power, 0),
            fmt(module.mean_flux_w_cm2, 2),
            fmt(performance.mass_flow * 3600.0, 1),
            fmt(kelvin_to_celsius(worst.board_temperature)),
            "yes" if feasible else "NO",
        ))
    print_table(
        "Fig. 6 / SIII - forced-air rack across module generations",
        ("generation", "P/module [W]", "flux [W/cm2]",
         "air [kg/h]", "worst board [degC]", "rack feasible"),
        rows)

    temps = [outcome[g][1].board_temperature for g in GENERATIONS]
    fluxes = [outcome[g][0].mean_flux_w_cm2 for g in GENERATIONS]
    # Shape 1: each generation runs hotter in the same envelope.
    assert temps == sorted(temps)
    assert fluxes == sorted(fluxes)
    # Shape 2: 10 W (current, e.g. A340/A380 computers) is comfortable.
    assert outcome["current"][2]
    # Shape 3: the 60 W generation breaks standard forced-air cooling -
    # the paper's motivation for new technologies.
    assert not outcome["next"][2]
    assert outcome["next"][1].board_temperature \
        > celsius_to_kelvin(85.0)
    # Shape 4: generational power ratio matches the quoted 10->30->60 W.
    powers = [outcome[g][0].power for g in GENERATIONS]
    assert powers == [10.0, 30.0, 60.0]
