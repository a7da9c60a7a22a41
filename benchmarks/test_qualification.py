"""E10 — §IV.A qualification campaign of the LHP-cooled seat.

"Additional tests were performed in order to check the conformity of the
cooling systems with the mains avionics specifications: linear
acceleration (up to 9 g, 3 minutes in each axis), vibrations (according
to DO160 Curve C1), climatic tests (between -25 and +55 degC ambient),
thermal shock (-45/+55 degC, 5 degC/min).  The seats have been submitted
to all the different tests without damage."
"""

from avipack.core.qualification import run_campaign
from avipack.environments.profiles import cosee_campaign
from avipack.experiments.cosee import seb_under_test

from conftest import fmt, print_table


def test_cosee_qualification_campaign(benchmark):
    equipment = seb_under_test(power=40.0)
    campaign = cosee_campaign()

    report = benchmark.pedantic(
        lambda: run_campaign(equipment, campaign), rounds=1, iterations=1)

    rows = []
    for verdict in report.verdicts:
        margin = ("inf" if verdict.margin == float("inf")
                  else fmt(verdict.margin, 2))
        rows.append((verdict.test_name,
                     "PASS" if verdict.passed else "FAIL",
                     margin, verdict.detail))
    print_table("SIV.A - virtual qualification of the LHP-cooled SEB",
                ("test", "verdict", "margin", "detail"), rows)

    # The paper's verdict: all tests passed, "without damage".
    assert report.passed
    assert len(report.verdicts) == 4
    # Every margin positive - the design has real headroom, not luck.
    for verdict in report.verdicts:
        assert verdict.margin > 0.0, verdict.test_name


def test_qualification_sensitivity_overpowered_seb(benchmark):
    """Control experiment: the campaign is discriminating - a 200 W SEB
    (double the demonstrated capability) fails the climatic test."""
    equipment = seb_under_test(power=200.0)
    campaign = cosee_campaign()

    report = benchmark.pedantic(
        lambda: run_campaign(equipment, campaign), rounds=1, iterations=1)

    rows = [(v.test_name, "PASS" if v.passed else "FAIL")
            for v in report.verdicts]
    print_table("control - 200 W SEB against the same campaign",
                ("test", "verdict"), rows)

    assert not report.passed
    assert not report.verdict("climatic").passed
    # The mechanical tests still pass (overheating, not overstress).
    assert report.verdict("linear_acceleration").passed
    assert report.verdict("vibration").passed
