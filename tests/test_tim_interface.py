"""Tests for assembled thermal interfaces and the NANOPACK objectives."""

import pytest

from avipack.errors import InputError
from avipack.tim.interface import (
    ThermalInterface,
    bond_line_thickness,
    meets_nanopack_target,
)


@pytest.fixture
def good_interface():
    # 20 W/m.K composite at 15 um BLT, 1 K.mm2/W contacts total.
    return ThermalInterface(conductivity=20.0, bond_line_thickness=15e-6,
                            contact_resistance=0.5e-6, area=1e-4)


class TestSpecificResistance:
    def test_formula(self, good_interface):
        expected = 15e-6 / 20.0 + 2 * 0.5e-6
        assert good_interface.specific_resistance \
            == pytest.approx(expected)

    def test_kmm2_conversion(self, good_interface):
        assert good_interface.specific_resistance_kmm2 \
            == pytest.approx(good_interface.specific_resistance * 1e6)

    def test_absolute_resistance(self, good_interface):
        assert good_interface.resistance == pytest.approx(
            good_interface.specific_resistance / 1e-4)

    def test_thinner_is_better(self, good_interface):
        from dataclasses import replace

        thin = replace(good_interface, bond_line_thickness=5e-6)
        assert thin.specific_resistance \
            < good_interface.specific_resistance


class TestNanopackTarget:
    def test_composite_meets_target(self, good_interface):
        # < 5 K.mm2/W at < 20 um: the project objective.
        assert meets_nanopack_target(good_interface)

    def test_grease_at_thick_blt_fails(self):
        grease = ThermalInterface(0.8, 100e-6, 3e-6, 1e-4)
        assert not meets_nanopack_target(grease)

    def test_thin_but_resistive_fails(self):
        bad = ThermalInterface(0.5, 15e-6, 10e-6, 1e-4)
        assert not meets_nanopack_target(bad)


class TestSurfaceEnhancements:
    def test_hnc_reduces_blt_by_default_22pct(self, good_interface):
        enhanced = good_interface.with_hnc_surface()
        assert enhanced.bond_line_thickness \
            == pytest.approx(15e-6 * 0.78)

    def test_hnc_reduces_resistance(self, good_interface):
        assert good_interface.with_hnc_surface().specific_resistance \
            < good_interface.specific_resistance

    def test_nanosponge_halves_contacts(self, good_interface):
        enhanced = good_interface.with_nanosponge_contacts()
        assert enhanced.contact_resistance == pytest.approx(0.25e-6)

    def test_invalid_reduction(self, good_interface):
        with pytest.raises(InputError):
            good_interface.with_hnc_surface(blt_reduction=1.5)


class TestBltScaling:
    def test_particle_floor(self):
        # High pressure: BLT approaches 1.31 x filler diameter.
        blt = bond_line_thickness(10e-6, 10.0, 1e7)
        assert blt >= 1.31 * 10e-6

    def test_pressure_thins_bond_line(self):
        soft = bond_line_thickness(5e-6, 50.0, 1e5)
        hard = bond_line_thickness(5e-6, 50.0, 1e6)
        assert hard < soft

    def test_viscosity_thickens_bond_line(self):
        runny = bond_line_thickness(5e-6, 10.0, 3e5)
        pasty = bond_line_thickness(5e-6, 1000.0, 3e5)
        assert pasty > runny

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            bond_line_thickness(-5e-6, 10.0, 3e5)


class TestValidation:
    def test_invalid_conductivity(self):
        with pytest.raises(InputError):
            ThermalInterface(-1.0, 15e-6, 1e-6, 1e-4)

    def test_invalid_blt(self):
        with pytest.raises(InputError):
            ThermalInterface(20.0, 0.0, 1e-6, 1e-4)

    def test_negative_contact_rejected(self):
        with pytest.raises(InputError):
            ThermalInterface(20.0, 15e-6, -1e-6, 1e-4)
