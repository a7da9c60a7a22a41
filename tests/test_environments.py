"""Tests for DO-160, ARINC 600 and qualification profiles."""

import pytest

from avipack.errors import InputError
from avipack.environments.arinc600 import (
    CardChannel,
    STANDARD_FLOW_KG_H_PER_KW,
    allocated_mass_flow,
    hotspot_surface_rise,
    module_performance,
    required_flow_multiplier,
)
from avipack.environments.do160 import (
    TEMPERATURE_CATEGORIES,
    curve_names,
    temperature_category,
    vibration_curve,
)
from avipack.environments.profiles import (
    AccelerationTest,
    ClimaticTest,
    ThermalShockTest,
    VibrationTest,
    cosee_campaign,
)
from avipack.units import celsius_to_kelvin


class TestDo160Vibration:
    def test_curve_c1_exists(self):
        assert "C1" in curve_names()

    def test_curve_plateau_levels_ordered(self):
        # Severity order: B < C < C1 < D < E.
        order = ["B", "C", "C1", "D", "E"]
        levels = [vibration_curve(c).level(100.0) for c in order]
        assert levels == sorted(levels)

    def test_curve_shape_rises_then_falls(self):
        psd = vibration_curve("C1")
        assert psd.level(10.0) < psd.level(100.0)
        assert psd.level(2000.0) < psd.level(100.0)

    def test_c1_grms_magnitude(self):
        # 0.02 g2/Hz plateau from 40-500 Hz: grms ~ 3.5-4.5 g.
        grms = vibration_curve("C1").rms_g()
        assert 3.0 < grms < 5.5

    def test_unknown_curve(self):
        with pytest.raises(InputError):
            vibration_curve("Z9")


class TestTemperatureCategories:
    def test_a1_operating_band(self):
        cat = temperature_category("A1")
        assert cat.contains_operating(celsius_to_kelvin(20.0))
        assert not cat.contains_operating(celsius_to_kelvin(70.0))

    def test_external_category_colder(self):
        assert TEMPERATURE_CATEGORIES["D2"].operating_low \
            < TEMPERATURE_CATEGORIES["A1"].operating_low

    def test_unknown_category(self):
        with pytest.raises(InputError):
            temperature_category("Q7")

    def test_all_categories_consistent(self):
        for cat in TEMPERATURE_CATEGORIES.values():
            assert cat.operating_low < cat.operating_high


class TestArinc600:
    def test_standard_flow_constant(self):
        assert STANDARD_FLOW_KG_H_PER_KW == pytest.approx(220.0)

    def test_allocation_scales_with_power(self):
        assert allocated_mass_flow(200.0) \
            == pytest.approx(2.0 * allocated_mass_flow(100.0))

    def test_module_performance_monotone_in_power_rise(self):
        # Board rise grows with dissipation generation: 10 -> 30 -> 60 W.
        rises = [module_performance(p).surface_rise
                 for p in (10.0, 30.0, 60.0)]
        assert rises == sorted(rises)

    def test_outlet_rise_fixed_by_allocation(self):
        # T_out - T_in = Q/(mdot cp) with mdot ~ Q: constant ~16 K.
        p1 = module_performance(10.0)
        p2 = module_performance(60.0)
        rise1 = p1.outlet_temperature - 313.15
        rise2 = p2.outlet_temperature - 313.15
        assert rise1 == pytest.approx(rise2, rel=1e-6)
        assert 10.0 < rise1 < 20.0

    def test_flow_multiplier_cools(self):
        base = module_performance(60.0)
        boosted = module_performance(60.0, flow_multiplier=10.0)
        assert boosted.surface_temperature < base.surface_temperature

    def test_hotspot_rise_formula(self):
        assert hotspot_surface_rise(1e6, 100.0) == pytest.approx(1e4)

    def test_hotspot_crisis_100w_cm2_infeasible(self):
        # The paper's conclusion: forced air cannot cope with 100 W/cm2.
        multiplier = required_flow_multiplier(100.0, 60.0)
        assert multiplier == float("inf")

    def test_moderate_hotspot_needs_multiple_of_standard(self):
        # ~10 W/cm2 class hot spots need several times the allocation
        # ("up to ten times the standard air flow rate").
        multiplier = required_flow_multiplier(5.0, 60.0)
        assert 1.0 < multiplier < 200.0

    def test_small_flux_fine_at_standard(self):
        assert required_flow_multiplier(0.2, 60.0) == pytest.approx(1.0)

    def test_channel_geometry(self):
        channel = CardChannel()
        assert channel.hydraulic_diameter \
            == pytest.approx(4.0 * channel.flow_area
                             / (2 * (channel.card_height
                                     + channel.channel_gap)))

    def test_invalid_power(self):
        with pytest.raises(InputError):
            module_performance(-10.0)


class TestProfiles:
    def test_cosee_campaign_matches_paper(self):
        campaign = cosee_campaign()
        assert campaign.acceleration.level_g == pytest.approx(9.0)
        assert campaign.acceleration.duration_per_axis_s \
            == pytest.approx(180.0)
        assert campaign.climatic.ambient_low \
            == pytest.approx(celsius_to_kelvin(-25.0))
        assert campaign.climatic.ambient_high \
            == pytest.approx(celsius_to_kelvin(55.0))
        assert campaign.thermal_shock.temperature_low \
            == pytest.approx(celsius_to_kelvin(-45.0))
        assert campaign.thermal_shock.ramp_rate_k_per_min \
            == pytest.approx(5.0)

    def test_thermal_shock_period(self):
        shock = ThermalShockTest(dwell_time_s=600.0)
        ramp = shock.swing / shock.ramp_rate_k_per_s
        assert shock.cycle_period_s == pytest.approx(2 * (600.0 + ramp))

    def test_climatic_evaluation_points(self):
        points = ClimaticTest().evaluation_points(5)
        assert len(points) == 5
        assert points[0] == pytest.approx(celsius_to_kelvin(-25.0))
        assert points[-1] == pytest.approx(celsius_to_kelvin(55.0))

    def test_vibration_from_curve(self):
        test = VibrationTest.do160("C1")
        assert test.psd.level(100.0) == pytest.approx(
            vibration_curve("C1").level(100.0))

    def test_invalid_acceleration(self):
        with pytest.raises(InputError):
            AccelerationTest(level_g=-9.0)

    def test_invalid_axis(self):
        with pytest.raises(InputError):
            AccelerationTest(axes=("x", "q"))

    def test_invalid_climatic_order(self):
        with pytest.raises(InputError):
            ClimaticTest(ambient_low=celsius_to_kelvin(60.0),
                         ambient_high=celsius_to_kelvin(55.0))
