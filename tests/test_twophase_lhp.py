"""Tests for the loop heat pipe model."""

from dataclasses import replace

import pytest

from avipack.errors import InputError, OperatingLimitError
from avipack.twophase.loopheatpipe import (
    TransportLine,
    cosee_ammonia_lhp,
)

T_OP = 320.0


class TestTransportLine:
    def test_laminar_drop_linear_in_flow(self):
        line = TransportLine(3e-3, 0.5)
        dp1 = line.laminar_pressure_drop(1e-5, 600.0, 2e-4)
        dp2 = line.laminar_pressure_drop(2e-5, 600.0, 2e-4)
        assert dp2 == pytest.approx(2.0 * dp1)

    def test_zero_flow(self):
        line = TransportLine(3e-3, 0.5)
        assert line.laminar_pressure_drop(0.0, 600.0, 2e-4) == 0.0

    def test_narrow_line_drops_more(self):
        wide = TransportLine(4e-3, 0.5)
        narrow = TransportLine(2e-3, 0.5)
        assert narrow.laminar_pressure_drop(1e-5, 600.0, 2e-4) \
            > wide.laminar_pressure_drop(1e-5, 600.0, 2e-4)

    def test_invalid_geometry(self):
        with pytest.raises(InputError):
            TransportLine(-3e-3, 0.5)


class TestPressureBalance:
    def test_margin_decreases_with_power(self, cosee_lhp):
        m10 = cosee_lhp.capillary_margin(10.0, T_OP)
        m60 = cosee_lhp.capillary_margin(60.0, T_OP)
        assert m60 < m10

    def test_drops_dictionary_complete(self, cosee_lhp):
        drops = cosee_lhp.pressure_drops(30.0, T_OP)
        for key in ("vapor", "liquid", "wick", "gravity",
                    "capillary_max"):
            assert key in drops

    def test_tilt_adds_gravity_head(self, cosee_lhp):
        flat = cosee_lhp.pressure_drops(30.0, T_OP, tilt_deg=0.0)
        tilted = cosee_lhp.pressure_drops(30.0, T_OP, tilt_deg=22.0)
        assert tilted["gravity"] > flat["gravity"]

    def test_downhill_gravity_assists(self, cosee_lhp):
        assisted = cosee_lhp.pressure_drops(30.0, T_OP, tilt_deg=-22.0)
        assert assisted["gravity"] < 0.0


class TestLimits:
    def test_cosee_unit_carries_30w_with_margin(self, cosee_lhp):
        # Each COSEE LHP moved ~29 W; the unit must hold that with margin.
        assert cosee_lhp.max_transport(T_OP) > 50.0

    def test_boiling_limit_binds_for_cosee(self, cosee_lhp):
        assert cosee_lhp.boiling_limit() \
            < cosee_lhp.capillary_limit(T_OP)

    def test_tilt_reduces_capillary_limit(self, cosee_lhp):
        assert cosee_lhp.capillary_limit(T_OP, 22.0) \
            < cosee_lhp.capillary_limit(T_OP, 0.0)

    def test_overload_raises_with_limit_name(self, cosee_lhp):
        q_max = cosee_lhp.max_transport(T_OP)
        with pytest.raises(OperatingLimitError) as excinfo:
            cosee_lhp.temperature_drop(q_max * 1.2, T_OP)
        assert excinfo.value.limit_name in ("capillary", "boiling")

    def test_extreme_elevation_kills_transport(self):
        lhp = cosee_ammonia_lhp(elevation=80.0)
        assert lhp.max_transport(T_OP) == 0.0


class TestThermalModel:
    def test_resistance_magnitude(self, cosee_lhp):
        # Miniature LHPs: 0.05-0.5 K/W saddle to saddle.
        r = cosee_lhp.thermal_resistance(30.0, T_OP)
        assert 0.05 < r < 0.5

    def test_small_delta_t_over_long_distance(self, cosee_lhp):
        # The LHP selling point: 30 W over 0.6 m at < 10 K.
        assert cosee_lhp.temperature_drop(30.0, T_OP) < 10.0

    def test_tilt_raises_resistance(self, cosee_lhp):
        assert cosee_lhp.thermal_resistance(30.0, T_OP, 22.0) \
            > cosee_lhp.thermal_resistance(30.0, T_OP, 0.0)

    def test_conductance_inverse(self, cosee_lhp):
        r = cosee_lhp.thermal_resistance(30.0, T_OP)
        assert cosee_lhp.conductance(30.0, T_OP) == pytest.approx(1.0 / r)

    def test_network_conductance_positive(self, cosee_lhp):
        g = cosee_lhp.network_conductance(power_hint=30.0)
        assert g(T_OP, 300.0) > 0.0

    def test_network_conductance_collapses_out_of_range(self, cosee_lhp):
        g = cosee_lhp.network_conductance(power_hint=30.0)
        # 600 K is far beyond ammonia validity: loop "shuts down".
        assert g(600.0, 300.0) == pytest.approx(1e-4)

    def test_network_conductance_invalid_hint(self, cosee_lhp):
        with pytest.raises(InputError):
            cosee_lhp.network_conductance(power_hint=-1.0)


class TestValidation:
    def test_invalid_areas(self, cosee_lhp):
        with pytest.raises(InputError):
            replace(cosee_lhp, evaporator_area=-1.0)

    def test_invalid_wick_participation(self, cosee_lhp):
        with pytest.raises(InputError):
            replace(cosee_lhp, wick_participation=1.5)

    def test_invalid_tilt(self, cosee_lhp):
        with pytest.raises(InputError):
            cosee_lhp.adverse_head(100.0)

    def test_negative_power(self, cosee_lhp):
        with pytest.raises(InputError):
            cosee_lhp.pressure_drops(-5.0, T_OP)
