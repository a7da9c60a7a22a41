"""Design-space enumeration: Candidate realisation and DesignSpace grids."""

import pickle

import pytest

from avipack.core.design_flow import PackagingSpecification
from avipack.errors import InputError
from avipack.packaging.cooling import CoolingTechnique
from avipack.packaging.rack import Rack
from avipack.sweep import Candidate, DesignSpace


class TestCandidate:
    def test_default_candidate_builds(self):
        rack, spec = Candidate().build()
        assert isinstance(rack, Rack)
        assert isinstance(spec, PackagingSpecification)
        assert len(rack.modules) == 4
        assert rack.total_power == pytest.approx(80.0)

    def test_construction_never_validates(self):
        # Broken points must enumerate fine and fail only on build().
        broken = Candidate(power_per_module=-5.0, tim_name="no_such_tim")
        assert broken.power_per_module == -5.0
        with pytest.raises(InputError):
            broken.build()

    def test_build_rejects_zero_modules(self):
        with pytest.raises(InputError):
            Candidate(n_modules=0).build()

    def test_build_rejects_unknown_cooling_string(self):
        with pytest.raises(InputError):
            Candidate(cooling="peltier_magic").build()

    def test_cooling_accepts_string_value(self):
        rack, _ = Candidate(cooling="conduction_cooled").build()
        assert rack.modules[0].technique is CoolingTechnique.CONDUCTION_COOLED

    def test_fingerprint_is_content_based(self):
        a = Candidate(power_per_module=12.0)
        b = Candidate(power_per_module=12.0)
        c = Candidate(power_per_module=13.0)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_is_hashed_once_and_kept_out_of_the_pickle(self):
        candidate = Candidate(power_per_module=12.5, n_modules=3)
        before = pickle.dumps(candidate)
        assert candidate.fingerprint is candidate.fingerprint
        assert pickle.dumps(candidate) == before
        restored = pickle.loads(before)
        assert "fingerprint" not in vars(restored)
        assert restored.fingerprint == candidate.fingerprint

    def test_fingerprint_insensitive_to_cooling_spelling(self):
        # Enum and its string value are distinct contents by design:
        # the candidate record stores what was given.
        by_enum = Candidate(cooling=CoolingTechnique.DIRECT_AIR_FLOW)
        again = Candidate(cooling=CoolingTechnique.DIRECT_AIR_FLOW)
        assert by_enum.fingerprint == again.fingerprint

    def test_nanopack_tim_raises_edge_conductance(self):
        cheap = Candidate(tim_name="standard_grease").envelope()
        nano = Candidate(tim_name="nanopack_cnt_array").envelope()
        assert nano.edge_conductance > cheap.edge_conductance

    def test_label_mentions_the_choices(self):
        label = Candidate(power_per_module=25.0,
                          tim_name="standard_grease").label
        assert "25W" in label
        assert "standard_grease" in label


class TestDesignSpace:
    def test_size_is_axis_product(self):
        space = DesignSpace({"power_per_module": (10.0, 20.0, 30.0),
                             "n_modules": (2, 4)})
        assert space.size == 6
        assert len(space) == 6

    def test_grid_order_last_axis_fastest(self):
        space = DesignSpace({"power_per_module": (10.0, 20.0),
                             "n_modules": (2, 4)})
        points = [(c.power_per_module, c.n_modules) for c in space.grid()]
        assert points == [(10.0, 2), (10.0, 4), (20.0, 2), (20.0, 4)]

    def test_grid_is_repeatable(self):
        space = DesignSpace({"series_fraction": (0.0, 0.5, 1.0)})
        assert list(space.grid()) == list(space.grid())

    def test_unknown_axis_rejected(self):
        with pytest.raises(InputError):
            DesignSpace({"warp_drive": (1, 2)})

    def test_empty_axis_rejected(self):
        with pytest.raises(InputError):
            DesignSpace({"power_per_module": ()})

    def test_no_axes_rejected(self):
        with pytest.raises(InputError):
            DesignSpace({})

    def test_base_candidate_fills_unswept_fields(self):
        base = Candidate(n_modules=7)
        space = DesignSpace({"power_per_module": (5.0,)}, base=base)
        (point,) = space.grid()
        assert point.n_modules == 7
        assert point.power_per_module == 5.0

    def test_sample_is_seeded_and_without_replacement(self):
        space = DesignSpace({"power_per_module": tuple(range(1, 21))})
        first = space.sample(5, seed=42)
        second = space.sample(5, seed=42)
        other = space.sample(5, seed=43)
        assert first == second
        assert len({c.fingerprint for c in first}) == 5
        assert first != other

    def test_sample_larger_than_space_returns_grid(self):
        space = DesignSpace({"n_modules": (1, 2)})
        assert space.sample(10) == list(space.grid())

    def test_standard_tradeoff_covers_every_cooling_mode(self):
        space = DesignSpace.standard_tradeoff()
        techniques = {c.cooling for c in space.grid()}
        assert techniques == set(CoolingTechnique)
        assert space.size == 3 * 2 * len(CoolingTechnique) * 2
