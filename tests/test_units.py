"""Tests for avipack.units conversions and constants."""

import pytest

from avipack import units
from avipack.errors import InputError


class TestTemperature:
    def test_celsius_roundtrip(self):
        assert units.kelvin_to_celsius(units.celsius_to_kelvin(25.0)) \
            == pytest.approx(25.0)

    def test_zero_celsius(self):
        assert units.celsius_to_kelvin(0.0) == pytest.approx(273.15)

    def test_below_absolute_zero_rejected(self):
        with pytest.raises(InputError):
            units.celsius_to_kelvin(-300.0)

    def test_negative_kelvin_rejected(self):
        with pytest.raises(InputError):
            units.kelvin_to_celsius(-1.0)

    def test_paper_limits(self):
        # The 125 degC junction / 85 degC ambient rules.
        assert units.celsius_to_kelvin(125.0) == pytest.approx(398.15)
        assert units.celsius_to_kelvin(85.0) == pytest.approx(358.15)


class TestFluxAndResistance:
    def test_resistance_roundtrip(self):
        assert units.si_to_kmm2_per_w(5.0e-6) == pytest.approx(5.0)


class TestArincFlow:
    def test_standard_allocation_1kw(self):
        # 220 kg/h/kW at 1 kW = 220 kg/h = 0.0611 kg/s.
        flow = units.arinc_flow_to_kg_per_s(220.0, 1000.0)
        assert flow == pytest.approx(220.0 / 3600.0, rel=1e-9)

    def test_roundtrip(self):
        flow = units.arinc_flow_to_kg_per_s(220.0, 450.0)
        assert flow * 3600.0 / 0.450 == pytest.approx(220.0)

    def test_zero_power_gives_zero_flow(self):
        assert units.arinc_flow_to_kg_per_s(220.0, 0.0) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            units.arinc_flow_to_kg_per_s(220.0, -1.0)


class TestConstants:
    def test_stefan_boltzmann(self):
        assert units.STEFAN_BOLTZMANN == pytest.approx(5.670374419e-8)

    def test_boltzmann_ev(self):
        assert units.BOLTZMANN_EV == pytest.approx(8.617333262e-5)
