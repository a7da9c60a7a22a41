"""Tests for convection correlations against textbook behaviour."""

import pytest

from avipack.errors import InputError
from avipack.materials.fluids import air_properties
from avipack.thermal.convection import (
    air_outlet_temperature,
    duct_velocity,
    forced_convection_duct,
    forced_convection_flat_plate,
    natural_convection_horizontal_cylinder,
    natural_convection_vertical_plate,
    rayleigh_number,
    reynolds_number,
)


@pytest.fixture
def air():
    return air_properties(300.0)


class TestDimensionless:
    def test_reynolds_magnitude(self, air):
        # 10 m/s over 0.1 m in air: Re ~ 6.3e4.
        assert reynolds_number(air, 10.0, 0.1) == pytest.approx(6.3e4,
                                                                rel=0.05)

    def test_rayleigh_magnitude(self, air):
        # 20 K over 0.1 m at 300 K: Ra = g.beta.dT.L^3/(nu.alpha) ~ 1.9e6.
        assert rayleigh_number(air, 20.0, 0.1) == pytest.approx(1.9e6,
                                                                rel=0.1)

    def test_rayleigh_zero_dt(self, air):
        assert rayleigh_number(air, 0.0, 0.1) == 0.0

    def test_invalid_length(self, air):
        with pytest.raises(InputError):
            reynolds_number(air, 1.0, -0.1)


class TestNaturalConvection:
    def test_vertical_plate_magnitude(self, air):
        # 30 K over a 0.2 m plate: h ~ 4-6 W/m2K.
        h = natural_convection_vertical_plate(air, 30.0, 0.2)
        assert 3.0 < h < 7.0

    def test_h_grows_with_delta_t(self, air):
        assert natural_convection_vertical_plate(air, 50.0, 0.2) \
            > natural_convection_vertical_plate(air, 10.0, 0.2)

    def test_cylinder_magnitude(self, air):
        # 30 mm rod at 30 K: h ~ 6-9 W/m2K.
        h = natural_convection_horizontal_cylinder(air, 30.0, 0.03)
        assert 4.0 < h < 11.0

    def test_zero_dt_gives_zero(self, air):
        assert natural_convection_vertical_plate(air, 0.0, 0.2) == 0.0


class TestForcedConvection:
    def test_flat_plate_laminar_magnitude(self, air):
        # 2 m/s over 0.1 m: laminar, h ~ 10-15 W/m2K.
        h = forced_convection_flat_plate(air, 2.0, 0.1)
        assert 8.0 < h < 20.0

    def test_flat_plate_turbulent_beats_laminar(self, air):
        h_slow = forced_convection_flat_plate(air, 2.0, 1.0)
        h_fast = forced_convection_flat_plate(air, 30.0, 1.0)
        assert h_fast > 3.0 * h_slow

    def test_duct_laminar_constant_nu(self, air):
        # Below Re 2300 the laminar Nu is constant: h = 7.54 k / Dh.
        h = forced_convection_duct(air, 0.5, 0.005)
        assert h == pytest.approx(7.54 * air.conductivity / 0.005,
                                  rel=1e-6)

    def test_duct_turbulent_scaling(self, air):
        # Dittus-Boelter: h ~ V^0.8.
        h1 = forced_convection_duct(air, 10.0, 0.01)
        h2 = forced_convection_duct(air, 20.0, 0.01)
        assert h2 / h1 == pytest.approx(2.0 ** 0.8, rel=0.01)

    def test_duct_velocity(self, air):
        v = duct_velocity(0.01, air, 1e-3)
        assert v == pytest.approx(0.01 / (air.density * 1e-3))

    def test_outlet_temperature(self):
        out = air_outlet_temperature(313.15, 100.0, 0.01, 1006.0)
        assert out == pytest.approx(313.15 + 100.0 / 10.06)

    def test_outlet_requires_positive_flow(self):
        with pytest.raises(InputError):
            air_outlet_temperature(313.15, 100.0, 0.0)
