"""Tests for fatigue models: Steinberg, three-band, Coffin-Manson."""

import pytest

from avipack.errors import InputError
from avipack.mechanical.fatigue import (
    CYCLES_TO_FAIL_RANDOM,
    fatigue_life_hours,
    margin_of_safety,
    steinberg_allowable_deflection,
    thermal_cycling_life_coffin_manson,
    three_band_damage_rate,
)


class TestSteinberg:
    def test_textbook_value(self):
        # Steinberg example: B=8in, L=2in, h=0.08in, C=1, r=1:
        # Z = 0.00022*8/(1*0.08*1*sqrt(2)) = 0.01556 in = 395 um.
        z = steinberg_allowable_deflection(
            board_length=8 * 25.4e-3, component_length=2 * 25.4e-3,
            component_type="dip_axial", relative_position=1.0,
            board_thickness=0.08 * 25.4e-3)
        assert z == pytest.approx(0.01556 * 25.4e-3, rel=0.01)

    def test_bigger_component_less_allowable(self):
        small = steinberg_allowable_deflection(0.2, 0.01, "smt_leadless")
        large = steinberg_allowable_deflection(0.2, 0.04, "smt_leadless")
        assert large < small

    def test_leadless_stricter_than_gullwing(self):
        leadless = steinberg_allowable_deflection(0.2, 0.02,
                                                  "smt_leadless")
        gullwing = steinberg_allowable_deflection(0.2, 0.02,
                                                  "smt_gullwing")
        assert leadless < gullwing

    def test_edge_position_relaxes(self):
        center = steinberg_allowable_deflection(0.2, 0.02, "dip_axial",
                                                relative_position=1.0)
        edge = steinberg_allowable_deflection(0.2, 0.02, "dip_axial",
                                              relative_position=0.5)
        assert edge > center

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError):
            steinberg_allowable_deflection(0.2, 0.02, "mystery_package")


class TestThreeBand:
    def test_at_allowable_life_near_reference(self):
        # Response exactly at the allowable (3 sigma = Z_allow) must give
        # a life in the vicinity of the 2e7-cycle reference.
        f_n = 100.0
        z_allow = 300e-6
        rate = three_band_damage_rate(z_allow / 3.0, z_allow, f_n)
        life_cycles = f_n / rate
        # The 3-sigma band alone would give exactly the 2e7 reference;
        # the gentler 1/2-sigma bands stretch the blended life ~15x.
        assert CYCLES_TO_FAIL_RANDOM < life_cycles \
            < 20.0 * CYCLES_TO_FAIL_RANDOM

    def test_zero_response_infinite_life(self):
        assert fatigue_life_hours(0.0, 300e-6, 100.0) == float("inf")

    def test_life_decreases_steeply_with_response(self):
        life_low = fatigue_life_hours(50e-6, 300e-6, 100.0)
        life_high = fatigue_life_hours(100e-6, 300e-6, 100.0)
        # b = 6.4: doubling the response cuts life by ~84x.
        assert life_low / life_high == pytest.approx(2 ** 6.4, rel=0.01)

    def test_higher_frequency_accumulates_faster(self):
        assert fatigue_life_hours(100e-6, 300e-6, 400.0) \
            < fatigue_life_hours(100e-6, 300e-6, 100.0)

    def test_invalid_allowable(self):
        with pytest.raises(InputError):
            three_band_damage_rate(1e-6, -1.0, 100.0)


class TestMargins:
    def test_positive_margin(self):
        assert margin_of_safety(50.0, 100.0) == pytest.approx(1.0)

    def test_negative_margin(self):
        assert margin_of_safety(200.0, 100.0) == pytest.approx(-0.5)

    def test_zero_demand_infinite(self):
        assert margin_of_safety(0.0, 100.0) == float("inf")

    def test_invalid_allowable(self):
        with pytest.raises(InputError):
            margin_of_safety(10.0, -1.0)


class TestCoffinManson:
    def test_reference(self):
        assert thermal_cycling_life_coffin_manson(75.0) \
            == pytest.approx(10_000.0)

    def test_paper_shock_swing(self):
        # -45/+55 degC = 100 K swing: fewer cycles than the 75 K reference.
        assert thermal_cycling_life_coffin_manson(100.0) < 10_000.0

    def test_quadratic_exponent(self):
        assert thermal_cycling_life_coffin_manson(37.5) \
            == pytest.approx(40_000.0)

    def test_invalid_swing(self):
        with pytest.raises(InputError):
            thermal_cycling_life_coffin_manson(-10.0)
