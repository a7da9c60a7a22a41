"""Tests for capillary wick structures."""

import pytest

from avipack.errors import InputError
from avipack.twophase.wick import (
    Wick,
    sintered_powder_wick,
)


class TestSinteredPowder:
    def test_finer_powder_pumps_harder(self):
        coarse = sintered_powder_wick(100e-6, 0.5, 398.0, 0.63)
        fine = sintered_powder_wick(10e-6, 0.5, 398.0, 0.63)
        assert fine.max_capillary_pressure(0.06) \
            > coarse.max_capillary_pressure(0.06)

    def test_finer_powder_less_permeable(self):
        coarse = sintered_powder_wick(100e-6, 0.5, 398.0, 0.63)
        fine = sintered_powder_wick(10e-6, 0.5, 398.0, 0.63)
        assert fine.permeability < coarse.permeability

    def test_permeability_magnitude(self):
        # 50 um copper powder at 50% porosity: K ~ 3e-11 m2.
        wick = sintered_powder_wick(50e-6, 0.5, 398.0, 0.63)
        assert wick.permeability == pytest.approx(3.3e-11, rel=0.3)

    def test_pore_radius_fraction_of_particle(self):
        wick = sintered_powder_wick(50e-6, 0.5, 398.0, 0.63)
        assert wick.effective_pore_radius == pytest.approx(0.41 * 50e-6)

    def test_saturated_conductivity_between_phases(self):
        wick = sintered_powder_wick(50e-6, 0.5, 398.0, 0.63)
        assert 0.63 < wick.conductivity_saturated < 398.0

    def test_invalid_porosity(self):
        with pytest.raises(InputError):
            sintered_powder_wick(50e-6, 1.2, 398.0, 0.63)


class TestWickBase:
    def test_darcy_pressure_drop_scales_linearly(self):
        wick = sintered_powder_wick(50e-6, 0.5, 398.0, 0.63)
        dp1 = wick.liquid_pressure_drop(1e-5, 3e-4, 960.0, 0.1, 1e-5)
        dp2 = wick.liquid_pressure_drop(2e-5, 3e-4, 960.0, 0.1, 1e-5)
        assert dp2 == pytest.approx(2.0 * dp1)

    def test_zero_flow_zero_drop(self):
        wick = sintered_powder_wick(50e-6, 0.5, 398.0, 0.63)
        assert wick.liquid_pressure_drop(0.0, 3e-4, 960.0, 0.1, 1e-5) == 0.0

    def test_capillary_pressure_formula(self):
        wick = Wick(1e-6, 1e-13, 0.6, 5.0)
        assert wick.max_capillary_pressure(0.02) \
            == pytest.approx(2.0 * 0.02 / 1e-6)

    def test_invalid_surface_tension(self):
        wick = Wick(1e-6, 1e-13, 0.6, 5.0)
        with pytest.raises(InputError):
            wick.max_capillary_pressure(-0.01)

    def test_invalid_construction(self):
        with pytest.raises(InputError):
            Wick(-1e-6, 1e-13, 0.6, 5.0)
        with pytest.raises(InputError):
            Wick(1e-6, 1e-13, 1.5, 5.0)
