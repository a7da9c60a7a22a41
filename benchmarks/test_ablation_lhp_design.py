"""Ablation A2 — loop-heat-pipe and heat-pipe design levers.

The two-phase devices have their own design space: the primary-wick pore
size trades pumping pressure against flow resistance, the transport-line
diameter sets the vapour pressure drop, and the working fluid must match
the temperature envelope.  These ablations quantify each lever with the
others at the COSEE baseline.
"""

from dataclasses import replace

from avipack.materials.fluids import rank_working_fluids
from avipack.twophase.heatpipe import standard_copper_water_heatpipe
from avipack.twophase.loopheatpipe import TransportLine, cosee_ammonia_lhp
from avipack.twophase.wick import sintered_powder_wick
from avipack.twophase.workingfluid import select_fluid

from conftest import fmt, print_table

T_OP = 320.0


def test_ablation_wick_particle_size(benchmark):
    radii_um = (0.5, 1.5, 5.0, 15.0)

    def run():
        outcome = {}
        for radius in radii_um:
            wick = sintered_powder_wick(radius * 1e-6, 0.6, 90.0, 0.5)
            lhp = replace(cosee_ammonia_lhp(), wick=wick)
            outcome[radius] = (lhp.capillary_limit(T_OP),
                               lhp.capillary_limit(T_OP, tilt_deg=80.0))
        return outcome

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "A2a - LHP capillary limit vs wick particle radius",
        ("r_particle [um]", "Q_cap level [W]", "Q_cap 80deg tilt [W]"),
        [(fmt(r), fmt(q0, 0), fmt(q80, 0))
         for r, (q0, q80) in results.items()])

    # Finer wick = more pumping head = better tilt tolerance: the
    # fraction of capacity retained at 80 deg tilt decreases
    # monotonically with particle size.
    tilt_ratios = [results[r][1] / max(results[r][0], 1e-9)
                   for r in radii_um]
    assert tilt_ratios == sorted(tilt_ratios, reverse=True)
    # The level limit has an INTERIOR optimum: ultra-fine pores choke
    # the liquid return (Darcy), coarse pores lose pumping pressure.
    # This trade-off is the LHP wick design problem.
    level_limits = [results[r][0] for r in radii_um]
    best = max(level_limits)
    assert level_limits[0] < best      # too fine: return-choked
    assert level_limits[-1] < best     # too coarse: pump-starved


def test_ablation_transport_line(benchmark):
    diameters_mm = (1.0, 2.0, 3.0, 5.0)

    def run():
        outcome = {}
        for diameter in diameters_mm:
            lhp = replace(
                cosee_ammonia_lhp(),
                vapor_line=TransportLine(diameter * 1e-3, 0.6))
            outcome[diameter] = (lhp.capillary_limit(T_OP),
                                 lhp.thermal_resistance(30.0, T_OP))
        return outcome

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "A2b - LHP performance vs vapour-line diameter",
        ("d_vap [mm]", "Q_cap [W]", "R at 30 W [K/W]"),
        [(fmt(d), fmt(q, 0), fmt(r, 3))
         for d, (q, r) in results.items()])

    q_values = [results[d][0] for d in diameters_mm]
    r_values = [results[d][1] for d in diameters_mm]
    # Wider vapour line: more transport, less resistance.
    assert q_values == sorted(q_values)
    assert r_values == sorted(r_values, reverse=True)
    # A 1 mm line chokes the loop badly relative to the 3 mm baseline.
    assert results[1.0][0] < 0.5 * results[3.0][0]


def test_ablation_working_fluid(benchmark):
    def run():
        return {
            "cabin_320K": rank_working_fluids(320.0),
            "cold_start_230K": rank_working_fluids(230.0),
            "selected_for_avionics": select_fluid(
                t_operating=320.0, t_min_survival=218.15),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [("cabin 320 K", ", ".join(
        f"{name} ({merit:.1e})" for name, merit in
        results["cabin_320K"][:3]))]
    rows.append(("cold start 230 K", ", ".join(
        f"{name} ({merit:.1e})" for name, merit in
        results["cold_start_230K"][:3])))
    rows.append(("selected (-55 degC survival)",
                 results["selected_for_avionics"][0]))
    print_table("A2c - working-fluid ranking by figure of merit",
                ("scenario", "ranking"), rows)

    # Water tops the merit table warm, but cannot survive -55 degC
    # storage: the avionics selection lands on ammonia, exactly the
    # COSEE/ITP choice.
    assert results["cabin_320K"][0][0] == "water"
    assert all(name != "water"
               for name, _merit in results["cold_start_230K"])
    assert results["selected_for_avionics"][0] == "ammonia"


def test_ablation_heatpipe_fluid_swap(benchmark):
    def run():
        pipe = standard_copper_water_heatpipe()
        from avipack.twophase.workingfluid import WorkingFluid

        outcome = {}
        for fluid in ("water", "methanol", "acetone"):
            variant = replace(pipe, fluid=WorkingFluid(fluid))
            outcome[fluid] = variant.max_heat_transport(330.0)[0]
        return outcome

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table("A2d - heat-pipe transport vs fill fluid (330 K)",
                ("fluid", "Q_max [W]"),
                [(name, fmt(q)) for name, q in results.items()])

    # Water's merit number dominates at electronics temperatures.
    assert results["water"] > results["methanol"]
    assert results["water"] > results["acetone"]
