"""Tests for the canned experiment builders (paper figures and claims)."""

import pytest

from avipack.errors import InputError
from avipack.experiments.cosee import (
    fig10_configurations,
    fig10_curves,
    measure_claims,
    measure_composite_claims,
)
from avipack.experiments.nanopack import (
    TARGETS,
    characterize_material,
    design_nanopack_adhesives,
    electrical_campaign,
    hnc_interface_study,
)


class TestFig10:
    def test_three_configurations(self):
        assert set(fig10_configurations()) == {
            "without_lhp", "with_lhp_horizontal", "with_lhp_tilt22"}

    def test_curves_monotone(self):
        curves = fig10_curves(powers=(20.0, 40.0, 60.0))
        for name, curve in curves.items():
            deltas = [d for _p, d in curve]
            assert deltas == sorted(deltas), name

    def test_without_lhp_curve_truncated(self):
        curves = fig10_curves(powers=(20.0, 40.0, 60.0, 80.0, 100.0))
        assert len(curves["without_lhp"]) \
            < len(curves["with_lhp_horizontal"])

    def test_lhp_always_cooler(self):
        curves = fig10_curves(powers=(20.0, 40.0))
        for (p1, d_without), (p2, d_with) in zip(
                curves["without_lhp"], curves["with_lhp_horizontal"]):
            assert d_with < d_without

    def test_tilt_between_curves(self):
        curves = fig10_curves(powers=(40.0, 80.0))
        for (_p, d_h), (_p2, d_t) in zip(
                curves["with_lhp_horizontal"], curves["with_lhp_tilt22"]):
            assert d_t >= d_h


class TestClaims:
    def test_aluminum_claims_shape(self):
        claims = measure_claims()
        assert claims.capability_increase_pct \
            == pytest.approx(150.0, abs=40.0)
        assert claims.temperature_drop_at_40w \
            == pytest.approx(32.0, abs=8.0)
        assert claims.lhp_heat_at_capability \
            == pytest.approx(58.0, rel=0.15)

    def test_composite_claims_shape(self):
        claims = measure_composite_claims()
        assert claims.capability_increase_pct \
            == pytest.approx(80.0, abs=30.0)
        assert claims.temperature_drop_at_40w \
            == pytest.approx(20.0, abs=8.0)

    def test_composite_below_aluminum(self):
        alu = measure_claims()
        composite = measure_composite_claims()
        assert composite.capability_with_lhp < alu.capability_with_lhp
        assert composite.temperature_drop_at_40w \
            < alu.temperature_drop_at_40w


class TestNanopackDesign:
    def test_three_adhesives_designed(self):
        designs = design_nanopack_adhesives()
        assert len(designs) == 3
        for design in designs:
            assert design.achieved_conductivity == pytest.approx(
                design.target_conductivity, rel=1e-3)

    def test_targets_match_paper(self):
        assert TARGETS["silver_flake_mono_epoxy"] == pytest.approx(6.0)
        assert TARGETS["silver_sphere_multi_epoxy"] == pytest.approx(9.5)
        assert TARGETS["metal_polymer_composite"] == pytest.approx(20.0)

    def test_designs_electrically_conductive(self):
        # All three load silver past percolation.
        for design in design_nanopack_adhesives():
            assert design.electrically_conductive

    def test_loadings_physically_plausible(self):
        for design in design_nanopack_adhesives():
            assert 0.2 < design.filler_loading < 0.64


class TestHncStudy:
    def test_majority_exceed_20pct_blt_reduction(self):
        # "reduce the final bond line thickness by > 20% for the majority
        # of TIMs on cm2 interfaces".
        studies = hnc_interface_study()
        reductions = [s.blt_reduction_pct for s in studies]
        majority = sum(1 for r in reductions if r > 20.0)
        assert majority > len(reductions) / 2

    def test_hnc_never_hurts(self):
        for study in hnc_interface_study():
            assert study.resistance_hnc_kmm2 <= study.resistance_flat_kmm2

    def test_some_material_meets_project_target(self):
        studies = hnc_interface_study()
        assert any(s.meets_target_hnc for s in studies)

    def test_baseline_grease_misses_target(self):
        studies = {s.material_name: s for s in hnc_interface_study()}
        assert not studies["standard_grease"].meets_target_flat


class TestD5470Campaign:
    def test_characterization_recovers_9p5(self):
        result = characterize_material("nanopack_silver_sphere_epoxy",
                                       seed=11)
        assert result.conductivity == pytest.approx(9.5, rel=0.25)

    def test_characterization_recovers_20(self):
        result = characterize_material("nanopack_metal_polymer_composite",
                                       seed=11)
        assert result.conductivity == pytest.approx(20.0, rel=0.35)

    def test_electrical_campaign_covers_conductive_tims(self):
        results = electrical_campaign()
        assert "nanopack_silver_flake_epoxy" in results
        assert "standard_grease" not in results
        for resistance in results.values():
            assert resistance >= 50e-6  # instrument floor


class TestExperimentsExtensions:
    """Ceiling-installation and altitude-derating studies."""

    def test_ceiling_beats_seat(self):
        from avipack.experiments.cosee import ceiling_installation_study

        study = ceiling_installation_study(60.0)
        assert study["ceiling_capability"] > study["seat_capability"]
        assert study["ceiling_delta_t"] < study["seat_delta_t"]

    def test_altitude_derates_monotonically(self):
        from avipack.experiments.cosee import altitude_derating_study

        study = altitude_derating_study(40.0)
        pressures = sorted(study, reverse=True)
        deltas = [study[p] for p in pressures]
        assert deltas == sorted(deltas)

    def test_altitude_study_validates_power(self):
        from avipack.experiments.cosee import altitude_derating_study

        with pytest.raises(InputError):
            altitude_derating_study(-1.0)
