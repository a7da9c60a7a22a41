"""Tests for thermo-mechanical stress models (CTE mismatch, solder)."""

import pytest

from avipack.errors import InputError
from avipack.mechanical.thermomechanical import (
    Layer,
    bimaterial_bow,
    bimaterial_curvature,
    solder_joint_assessment,
    underfill_benefit_factor,
)


@pytest.fixture
def fr4():
    return Layer(thickness=1.6e-3, youngs_modulus=22e9, cte=16e-6)


@pytest.fixture
def alumina():
    return Layer(thickness=0.6e-3, youngs_modulus=310e9, cte=7.2e-6)


class TestBimaterial:
    def test_equal_cte_no_curvature(self):
        a = Layer(1e-3, 100e9, 10e-6)
        b = Layer(1e-3, 50e9, 10e-6)
        assert bimaterial_curvature(a, b, 80.0) == pytest.approx(0.0)

    def test_symmetric_bimetal_textbook(self):
        # Equal thickness, equal modulus: kappa = 3/2 * dA * dT / h
        # (Timoshenko: denominator term = 16/... check the classic
        # kappa = 6 dA dT (1+m)^2 / (h K) with m=n=1 -> K = 3*4 + 2*(1+1/1)
        # Wait: K = 3(1+1)^2 + (1+1)(1+1) = 12 + 4 = 16.
        # kappa = 6 * dA * dT * 4 / (h * 16) = 1.5 dA dT / h.
        a = Layer(1e-3, 100e9, 20e-6)
        b = Layer(1e-3, 100e9, 10e-6)
        kappa = bimaterial_curvature(a, b, 100.0)
        expected = 1.5 * (10e-6 - 20e-6) * 100.0 / 2e-3
        assert kappa == pytest.approx(expected, rel=1e-9)

    def test_curvature_sign_flips_with_dt(self, fr4, alumina):
        hot = bimaterial_curvature(fr4, alumina, 80.0)
        cold = bimaterial_curvature(fr4, alumina, -80.0)
        assert hot == pytest.approx(-cold)

    def test_bow_scales_with_length_squared(self, fr4, alumina):
        bow_short = abs(bimaterial_bow(fr4, alumina, 80.0, 0.05))
        bow_long = abs(bimaterial_bow(fr4, alumina, 80.0, 0.10))
        assert bow_long == pytest.approx(4.0 * bow_short)

    def test_invalid_layer(self):
        with pytest.raises(InputError):
            Layer(-1e-3, 100e9, 10e-6)


class TestSolderJoint:
    def test_ceramic_on_fr4_worst_case(self):
        # 25 mm ceramic package on FR-4, 100 K swing: the classic CTE
        # nightmare - strain in the percent class, life in the hundreds.
        assessment = solder_joint_assessment(
            package_half_diagonal=17.7e-3, joint_height=0.1e-3,
            cte_component=7e-6, cte_board=16e-6, delta_t=100.0)
        assert assessment.shear_strain > 0.01
        assert assessment.cycles_to_failure < 10_000.0

    def test_matched_cte_infinite_life(self):
        assessment = solder_joint_assessment(
            17.7e-3, 0.1e-3, 16e-6, 16e-6, 100.0)
        assert assessment.cycles_to_failure == float("inf")

    def test_taller_joint_lives_longer(self):
        short = solder_joint_assessment(10e-3, 0.05e-3, 7e-6, 16e-6,
                                        80.0)
        tall = solder_joint_assessment(10e-3, 0.2e-3, 7e-6, 16e-6, 80.0)
        assert tall.cycles_to_failure > short.cycles_to_failure

    def test_corner_joint_worst(self):
        near = solder_joint_assessment(3e-3, 0.1e-3, 7e-6, 16e-6, 80.0)
        corner = solder_joint_assessment(15e-3, 0.1e-3, 7e-6, 16e-6,
                                         80.0)
        assert corner.cycles_to_failure < near.cycles_to_failure

    def test_survives_predicate(self):
        assessment = solder_joint_assessment(5e-3, 0.15e-3, 14e-6, 16e-6,
                                             60.0)
        assert assessment.survives(100.0)
        with pytest.raises(InputError):
            assessment.survives(-1.0)

    def test_invalid_geometry(self):
        with pytest.raises(InputError):
            solder_joint_assessment(-5e-3, 0.1e-3, 7e-6, 16e-6, 80.0)


class TestQualificationHelpers:

    def test_underfill_factor(self):
        # 70 % strain cut at exponent 2: ~11x life.
        assert underfill_benefit_factor() == pytest.approx(11.1, rel=0.01)

    def test_underfill_invalid(self):
        with pytest.raises(InputError):
            underfill_benefit_factor(strain_reduction=1.0)
