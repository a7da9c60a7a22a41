"""Tests for the virtual qualification campaign on the COSEE SEB."""

import pytest

from avipack.core.qualification import (
    EquipmentUnderTest,
    run_acceleration_test,
    run_campaign,
    run_climatic_test,
    run_thermal_shock_test,
    run_vibration_test,
)
from avipack.core.report import render_qualification_report
from avipack.environments.profiles import (
    AccelerationTest,
    cosee_campaign,
)
from avipack.errors import InputError
from avipack.experiments.cosee import seb_under_test
from avipack.mechanical.plate import PlateSpec


@pytest.fixture(scope="module")
def equipment():
    return seb_under_test(power=40.0)


@pytest.fixture(scope="module")
def campaign():
    return cosee_campaign()


class TestIndividualTests:
    def test_acceleration_passes(self, equipment, campaign):
        verdict = run_acceleration_test(equipment, campaign)
        assert verdict.passed
        assert verdict.margin > 0.0

    def test_acceleration_scales_with_level(self, equipment):
        import dataclasses

        harsh = dataclasses.replace(
            cosee_campaign(),
            acceleration=AccelerationTest(level_g=500.0))
        verdict = run_acceleration_test(equipment, harsh)
        mild = run_acceleration_test(equipment, cosee_campaign())
        assert verdict.margin < mild.margin

    def test_vibration_passes(self, equipment, campaign):
        verdict = run_vibration_test(equipment, campaign)
        assert verdict.passed

    def test_vibration_detail_mentions_frequency(self, equipment,
                                                 campaign):
        verdict = run_vibration_test(equipment, campaign)
        assert "f1=" in verdict.detail

    def test_climatic_passes_at_40w(self, equipment, campaign):
        verdict = run_climatic_test(equipment, campaign)
        assert verdict.passed

    def test_climatic_fails_at_overload(self, campaign):
        hot_equipment = seb_under_test(power=200.0)
        verdict = run_climatic_test(hot_equipment, campaign)
        assert not verdict.passed

    def test_thermal_shock_passes(self, equipment, campaign):
        verdict = run_thermal_shock_test(equipment, campaign)
        assert verdict.passed
        assert "realised" in verdict.detail

    def test_climatic_needs_thermal_model(self, campaign):
        bare = EquipmentUnderTest(
            name="bare",
            board=PlateSpec(0.2, 0.15, 1.6e-3, 22e9, 0.28, 1850.0))
        with pytest.raises(InputError):
            run_climatic_test(bare, campaign)


class TestFullCampaign:
    def test_cosee_seb_passes_everything(self, equipment, campaign):
        # The paper: "the seats have been submitted to all the different
        # tests without damage".
        report = run_campaign(equipment, campaign)
        assert report.passed
        assert len(report.verdicts) == 4

    def test_verdict_lookup(self, equipment, campaign):
        report = run_campaign(equipment, campaign)
        assert report.verdict("vibration").test_name == "vibration"
        with pytest.raises(InputError):
            report.verdict("lightning")

    def test_report_renders(self, equipment, campaign):
        report = run_campaign(equipment, campaign)
        text = render_qualification_report(report)
        assert "QUALIFICATION REPORT" in text
        assert "PASS - no damage" in text
        for name in ("linear_acceleration", "vibration", "climatic",
                     "thermal_shock"):
            assert name in text

    def test_mechanical_only_campaign(self, campaign):
        bare = EquipmentUnderTest(
            name="bare",
            board=PlateSpec(0.2, 0.15, 1.6e-3, 22e9, 0.28, 1850.0))
        report = run_campaign(bare, campaign)
        assert len(report.verdicts) == 2
