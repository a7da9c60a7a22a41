"""Tests for the TIM catalogue and the NANOPACK entries."""

import pytest

from avipack.errors import InputError, MaterialNotFoundError
from avipack.tim.catalog import get_tim, list_tims
from avipack.tim.interface import meets_nanopack_target


class TestCatalog:
    def test_nanopack_entries_present(self):
        names = list_tims()
        for expected in ("nanopack_silver_flake_epoxy",
                         "nanopack_silver_sphere_epoxy",
                         "nanopack_metal_polymer_composite"):
            assert expected in names

    def test_paper_conductivities(self):
        # The three headline numbers: 6 / 9.5 / 20 W/m.K.
        assert get_tim("nanopack_silver_flake_epoxy").conductivity \
            == pytest.approx(6.0)
        assert get_tim("nanopack_silver_sphere_epoxy").conductivity \
            == pytest.approx(9.5)
        assert get_tim("nanopack_metal_polymer_composite").conductivity \
            == pytest.approx(20.0)

    def test_flake_epoxy_shear_strength(self):
        # "measured to 14 MPa which is also remarkable".
        assert get_tim("nanopack_silver_flake_epoxy").shear_strength \
            == pytest.approx(14e6)

    def test_silver_adhesives_electrically_conductive(self):
        assert get_tim("nanopack_silver_flake_epoxy") \
            .electrically_conductive
        assert not get_tim("standard_grease").electrically_conductive

    def test_unknown_rejected(self):
        with pytest.raises(MaterialNotFoundError):
            get_tim("unobtanium_paste")


class TestAssembly:
    def test_composite_meets_project_target(self):
        iface = get_tim("nanopack_metal_polymer_composite").assemble(
            1e-4, hnc_surface=True)
        assert meets_nanopack_target(iface)

    def test_grease_does_not_meet_target(self):
        iface = get_tim("standard_grease").assemble(1e-4)
        assert not meets_nanopack_target(iface)

    def test_hnc_thins_bond_line(self):
        material = get_tim("nanopack_silver_sphere_epoxy")
        flat = material.assemble(1e-4)
        hnc = material.assemble(1e-4, hnc_surface=True)
        assert hnc.bond_line_thickness < flat.bond_line_thickness

    def test_pressure_effect(self):
        material = get_tim("standard_grease")
        soft = material.assemble(1e-4, pressure=1e5)
        hard = material.assemble(1e-4, pressure=1e6)
        assert hard.bond_line_thickness <= soft.bond_line_thickness

    def test_invalid_area(self):
        with pytest.raises(InputError):
            get_tim("standard_grease").assemble(-1e-4)
