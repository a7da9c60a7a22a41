"""Ablation A5 — margin identification: tornado + Monte-Carlo.

"To identify the weaknesses of the design and margins regarding fatigue
effects" (§II).  This bench runs the two margin tools on the COSEE
chain:

* a tornado (OAT sensitivity) of the ΔT≤60 K capability over the five
  chain parameters — which knob owns the margin;
* a Monte-Carlo of the 40 W PCB ΔT under realistic parameter scatter —
  the P95/P99 numbers a margin policy signs off on.
"""

from avipack.core.sensitivity import one_at_a_time, tornado_rows
from avipack.core.uncertainty import Distribution, propagate
from avipack.packaging.seb import (
    SeatElectronicsBox,
    SeatStructure,
    SebConfiguration,
)

from conftest import fmt, print_table


def capability_metric(params):
    seb = SeatElectronicsBox(
        internal_conductance=params["internal_g"],
        n_heatpipes=int(round(params["n_hp"])),
        hp_saddle_area=params["saddle_area"])
    structure = SeatStructure(total_area=params["struct_area"],
                              fin_half_length=params["fin_half"])
    config = SebConfiguration(cooling="hp_lhp", structure=structure)
    return seb.max_power_for_delta_t(60.0, config)


BASELINE = {"internal_g": 1.2, "n_hp": 4.0, "saddle_area": 4e-4,
            "struct_area": 0.18, "fin_half": 0.11}


def test_capability_tornado(benchmark):
    study = benchmark.pedantic(
        lambda: one_at_a_time(capability_metric, BASELINE,
                              relative_step=0.2),
        rounds=1, iterations=1)

    rows = [(name, fmt(low), fmt(high), f"{elasticity:+.3f}")
            for name, low, high, elasticity in tornado_rows(study)]
    print_table(
        "A5a - capability tornado (+/-20 % on each chain parameter)",
        ("parameter", "low [W]", "high [W]", "elasticity"), rows)
    print(f"  baseline capability: {study.metric_baseline:.1f} W")

    # The sink (structure area) owns the margin; the saddle TIM area is
    # nearly irrelevant - exactly the ablation-A1 ordering, recovered
    # automatically by the generic tool.
    assert study.dominant().parameter == "struct_area"
    assert abs(study.entry("saddle_area").elasticity) \
        < 0.3 * abs(study.entry("struct_area").elasticity)
    # All chain improvements help (positive elasticity) except the fin
    # half-length, where MORE distance means LESS efficiency.
    assert study.entry("fin_half").elasticity < 0.0
    for name in ("internal_g", "n_hp", "struct_area"):
        assert study.entry(name).elasticity > 0.0


def test_delta_t_monte_carlo(benchmark):
    def delta_t(params):
        seb = SeatElectronicsBox(
            internal_conductance=params["internal_g"],
            hp_saddle_area=params["saddle_area"])
        structure = SeatStructure(total_area=params["struct_area"])
        config = SebConfiguration(cooling="hp_lhp", structure=structure)
        return seb.solve(40.0, config).delta_t_pcb_air

    distributions = {
        # Assembly scatter on the internal coupling and saddle areas,
        # installation scatter on the reachable structure area.
        "internal_g": Distribution("normal", 1.2, 0.12),
        "saddle_area": Distribution("lognormal", 4e-4, 1.2),
        "struct_area": Distribution("uniform", 0.14, 0.22),
    }

    result = benchmark.pedantic(
        lambda: propagate(delta_t, distributions, n_samples=120,
                          seed=11),
        rounds=1, iterations=1)

    summary = result.margin_summary()
    print_table(
        "A5b - Monte-Carlo of dT(PCB-air) at 40 W under parameter "
        "scatter",
        ("statistic", "dT [K]"),
        [(key, fmt(value, 2)) for key, value in summary.items()])
    print(f"  P(dT > 32 K paper band) = "
          f"{result.probability_above(32.0):.2f}")

    # Nominal 25.6 K: the scatter stays in a credible band and the P99
    # remains far from the 60 K capability criterion - real margin.
    assert 23.0 < summary["p50"] < 29.0
    assert summary["p99"] < 40.0
    assert summary["p50"] <= summary["p95"] <= summary["p99"]
    assert result.failures == 0
