"""Ablation A4 — thermo-mechanical screening (§II failure causes).

§II lists "thermo-mechanical induced stress" among the main causes of
failure in airborne equipment.  This bench runs the standard screening
set against the paper's −45/+55 °C thermal-shock swing:

* DNP solder strain and Coffin–Manson life per package class;
* the bimaterial bow of a heat-sink-bonded board across the swing;
* the underfill mitigation factor for the failing class.
"""

from avipack.mechanical.thermomechanical import (
    Layer,
    bimaterial_bow,
    solder_joint_assessment,
    underfill_benefit_factor,
)

from conftest import fmt, print_table

CHAMBER_SWING = 100.0  # -45 / +55 degC

#: Package screening set: (name, half diagonal m, joint height m,
#: component CTE 1/K).
PACKAGES = (
    ("soic_8 (plastic)", 3.2e-3, 0.15e-3, 17e-6),
    ("qfp_20mm (plastic)", 14.1e-3, 0.12e-3, 14e-6),
    ("bga_23mm (plastic)", 16.3e-3, 0.35e-3, 14e-6),
    ("cqfp_ceramic_20mm", 14.1e-3, 0.10e-3, 7e-6),
    ("cbga_ceramic_25mm", 17.7e-3, 0.30e-3, 7e-6),
)

CTE_BOARD = 16e-6


def test_thermomech_solder_screening(benchmark):
    def run():
        return {name: solder_joint_assessment(
            dnp, height, cte, CTE_BOARD, CHAMBER_SWING)
            for name, dnp, height, cte in PACKAGES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, _dnp, _h, _cte in PACKAGES:
        assessment = results[name]
        rows.append((name,
                     f"{assessment.shear_strain * 100.0:.2f} %",
                     fmt(assessment.cycles_to_failure, 0),
                     fmt(assessment.life_years_at_daily_cycles, 1)))
    print_table(
        "A4a - solder screening at the -45/+55 degC shock swing",
        ("package", "strain/cycle", "cycles to fail",
         "years at 2/day"), rows)

    # CTE-matched plastic packages survive; large ceramic-on-FR4 is the
    # known killer (why CTE-matched boards/columns exist).
    assert results["soic_8 (plastic)"].cycles_to_failure > 10_000.0
    assert results["cbga_ceramic_25mm"].cycles_to_failure \
        < results["bga_23mm (plastic)"].cycles_to_failure
    # Taller joints (BGA balls vs QFP fillets) buy life at equal DNP.
    assert results["bga_23mm (plastic)"].cycles_to_failure \
        > results["qfp_20mm (plastic)"].cycles_to_failure

    # Underfill rescues the worst case by an order of magnitude.
    factor = underfill_benefit_factor()
    rescued = results["cbga_ceramic_25mm"].cycles_to_failure * factor
    print(f"  underfill factor x{factor:.1f} -> ceramic BGA life "
          f"{rescued:.0f} cycles")
    assert factor > 5.0


def test_thermomech_board_bow(benchmark):
    fr4 = Layer(thickness=1.6e-3, youngs_modulus=22e9, cte=16e-6)
    aluminum = Layer(thickness=2.0e-3, youngs_modulus=68.9e9,
                     cte=23.6e-6)
    invar_like = Layer(thickness=2.0e-3, youngs_modulus=140e9,
                       cte=5.0e-6)

    def run():
        return {
            "fr4_on_aluminum": bimaterial_bow(aluminum, fr4,
                                              CHAMBER_SWING, 0.16),
            "fr4_on_low_cte_core": bimaterial_bow(invar_like, fr4,
                                                  CHAMBER_SWING, 0.16),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "A4b - 160 mm board bow across the 100 K shock swing",
        ("stack", "centre bow [um]"),
        [(name, fmt(abs(bow) * 1e6))
         for name, bow in results.items()])

    # Both stacks bow measurably; the constraint-core stack bows in the
    # opposite direction (CTE below FR-4 instead of above).
    assert abs(results["fr4_on_aluminum"]) > 10e-6
    assert results["fr4_on_aluminum"] * results["fr4_on_low_cte_core"] \
        < 0.0
