"""Tests for effective-medium TIM conductivity models."""

import pytest

from avipack.errors import InputError
from avipack.tim.models import (
    electrical_resistivity_filled,
    lewis_nielsen,
    loading_for_conductivity,
)

K_EPOXY = 0.2
K_SILVER = 429.0


class TestLewisNielsen:
    def test_matches_target_design_flow(self):
        # The NANOPACK design numbers: 6 W/m.K from flakes.
        phi = loading_for_conductivity(K_EPOXY, K_SILVER, 6.0, "flakes")
        assert lewis_nielsen(K_EPOXY, K_SILVER, phi, "flakes") \
            == pytest.approx(6.0, rel=1e-3)

    def test_realistic_loading_for_6_w_mk(self):
        # Real silver-epoxy adhesives hit 4-8 W/m.K near 45-60 vol%.
        phi = loading_for_conductivity(K_EPOXY, K_SILVER, 6.0, "flakes")
        assert 0.35 < phi < 0.52

    def test_flakes_beat_spheres_at_same_loading(self):
        phi = 0.4
        assert lewis_nielsen(K_EPOXY, K_SILVER, phi, "flakes") \
            > lewis_nielsen(K_EPOXY, K_SILVER, phi, "spheres")

    def test_loading_above_packing_rejected(self):
        with pytest.raises(InputError):
            lewis_nielsen(K_EPOXY, K_SILVER, 0.7, "spheres")

    def test_unreachable_target_rejected(self):
        with pytest.raises(InputError):
            loading_for_conductivity(K_EPOXY, 2.0, 50.0, "spheres")

    def test_unknown_shape_rejected(self):
        with pytest.raises(InputError):
            lewis_nielsen(K_EPOXY, K_SILVER, 0.3, "stars")

    def test_target_below_matrix_rejected(self):
        with pytest.raises(InputError):
            loading_for_conductivity(K_EPOXY, K_SILVER, 0.1)


class TestElectrical:
    def test_insulating_below_threshold(self):
        assert electrical_resistivity_filled(1e-7, 0.1) == float("inf")

    def test_conductive_above_threshold(self):
        rho = electrical_resistivity_filled(1e-7, 0.5)
        assert rho < 1e-5

    def test_nanopack_resistivity_class(self):
        # The paper quotes 1e-6 to 1e-4 Ohm.cm = 1e-8 to 1e-6 Ohm.m.
        rho = electrical_resistivity_filled(8e-7, 0.48)
        assert 1e-8 < rho < 1e-5

    def test_monotone_decreasing(self):
        assert electrical_resistivity_filled(1e-7, 0.6) \
            < electrical_resistivity_filled(1e-7, 0.3)
