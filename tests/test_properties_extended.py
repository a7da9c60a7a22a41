"""Property-based tests for the extension modules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avipack.mechanical.thermomechanical import (
    Layer,
    bimaterial_curvature,
    solder_joint_assessment,
)
from avipack.packaging.ife import IfeSystem
from avipack.reliability.mission import MissionPhase, predict_mission_mtbf
from avipack.reliability.mtbf import PartReliability
from avipack.twophase.wick import sintered_necked_wick, \
    sintered_powder_wick


class TestWickProperties:
    radius = st.floats(min_value=1e-7, max_value=2e-4)
    porosity = st.floats(min_value=0.2, max_value=0.8)

    @given(radius, porosity)
    @settings(max_examples=50)
    def test_necked_conductivity_between_phases(self, r, eps):
        wick = sintered_necked_wick(r, eps, 398.0, 0.63)
        assert 0.63 <= wick.conductivity_saturated <= 398.0

    @given(radius, st.floats(min_value=0.2, max_value=0.7))
    @settings(max_examples=50)
    def test_necked_beats_packed_at_practical_porosity(self, r, eps):
        # The two correlations bracket reality and cross only above
        # ~0.75 porosity, beyond practical sintered structures.
        packed = sintered_powder_wick(r, eps, 398.0, 0.63)
        necked = sintered_necked_wick(r, eps, 398.0, 0.63)
        assert necked.conductivity_saturated \
            >= packed.conductivity_saturated - 1e-9

    @given(radius, porosity,
           st.floats(min_value=1e-3, max_value=0.08))
    @settings(max_examples=50)
    def test_capillary_pressure_positive(self, r, eps, sigma):
        wick = sintered_powder_wick(r, eps, 398.0, 0.63)
        assert wick.max_capillary_pressure(sigma) > 0.0


class TestThermomechanicalProperties:
    layer = st.builds(
        Layer,
        thickness=st.floats(min_value=1e-4, max_value=5e-3),
        youngs_modulus=st.floats(min_value=1e9, max_value=400e9),
        cte=st.floats(min_value=1e-6, max_value=30e-6))

    @given(layer, layer, st.floats(min_value=-150.0, max_value=150.0))
    @settings(max_examples=100)
    def test_curvature_antisymmetric_in_layers(self, a, b, delta_t):
        # Swapping the layers flips the bending direction.
        kappa_ab = bimaterial_curvature(a, b, delta_t)
        kappa_ba = bimaterial_curvature(b, a, delta_t)
        if abs(kappa_ab) > 1e-12:
            assert kappa_ab * kappa_ba <= 1e-15

    @given(layer, layer, st.floats(min_value=1.0, max_value=150.0))
    @settings(max_examples=100)
    def test_curvature_linear_in_delta_t(self, a, b, delta_t):
        kappa_1 = bimaterial_curvature(a, b, delta_t)
        kappa_2 = bimaterial_curvature(a, b, 2.0 * delta_t)
        assert kappa_2 == pytest.approx(2.0 * kappa_1, rel=1e-9,
                                        abs=1e-15)

    @given(st.floats(min_value=1e-3, max_value=30e-3),
           st.floats(min_value=5e-5, max_value=5e-4),
           st.floats(min_value=1.0, max_value=150.0))
    @settings(max_examples=50)
    def test_solder_life_monotone_in_swing(self, dnp, height, swing):
        small = solder_joint_assessment(dnp, height, 7e-6, 16e-6, swing)
        large = solder_joint_assessment(dnp, height, 7e-6, 16e-6,
                                        swing * 1.5)
        assert large.cycles_to_failure <= small.cycles_to_failure


class TestMissionProperties:
    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=300.0, max_value=380.0),
           st.floats(min_value=300.0, max_value=380.0))
    @settings(max_examples=50)
    def test_mission_between_phase_extremes(self, fraction, t1, t2):
        parts = [PartReliability("p", 300.0)]
        phases = [
            MissionPhase("a", fraction, {"p": t1}),
            MissionPhase("b", 1.0 - fraction, {"p": t2}),
        ]
        mission = predict_mission_mtbf(parts, phases)
        phase_mtbfs = [pred.mtbf_hours
                       for pred in mission.per_phase.values()]
        assert min(phase_mtbfs) - 1e-6 <= mission.mtbf_hours \
            <= max(phase_mtbfs) + 1e-6


class TestIfeProperties:
    @given(st.integers(min_value=1, max_value=800),
           st.floats(min_value=5.0, max_value=100.0))
    @settings(max_examples=50)
    def test_fleet_figures_scale_linearly(self, n_seats, power):
        one = IfeSystem(1, seb_power=power, cooling="fan")
        many = IfeSystem(n_seats, seb_power=power, cooling="fan")
        assert many.system_power \
            == pytest.approx(n_seats * one.system_power)
        assert many.system_failure_rate_fit \
            == pytest.approx(n_seats * one.system_failure_rate_fit)

    @given(st.integers(min_value=1, max_value=800))
    @settings(max_examples=30)
    def test_passive_always_more_reliable(self, n_seats):
        fan = IfeSystem(n_seats, cooling="fan")
        passive = IfeSystem(n_seats, cooling="passive")
        assert passive.seb_mtbf_hours > fan.seb_mtbf_hours
