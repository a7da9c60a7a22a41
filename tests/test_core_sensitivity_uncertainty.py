"""Tests for the sensitivity (tornado) and Monte-Carlo uncertainty tools."""

import numpy as np
import pytest

from avipack.core.sensitivity import (
    SensitivityStudy,
    one_at_a_time,
    tornado_rows,
)
from avipack.core.uncertainty import (
    Distribution,
    propagate,
)
from avipack.errors import InputError


def quadratic(params):
    """M = 3a + b^2 - analytic elasticities available."""
    return 3.0 * params["a"] + params["b"] ** 2


class TestOneAtATime:
    def test_linear_elasticity_exact(self):
        # M = 3a at b=0-ish: elasticity of a is a*3/M.
        study = one_at_a_time(quadratic, {"a": 2.0, "b": 1.0},
                              relative_step=0.01)
        m0 = 3.0 * 2.0 + 1.0
        expected_a = (3.0 * 2.0) / m0      # dM/da * a / M
        assert study.entry("a").elasticity == pytest.approx(expected_a,
                                                            rel=1e-6)

    def test_quadratic_elasticity(self):
        study = one_at_a_time(quadratic, {"a": 2.0, "b": 2.0},
                              relative_step=0.01)
        m0 = 6.0 + 4.0
        expected_b = (2.0 * 2.0 * 2.0) / m0   # dM/db * b / M = 2b*b/M
        assert study.entry("b").elasticity == pytest.approx(expected_b,
                                                            rel=1e-4)

    def test_ranking(self):
        study = one_at_a_time(quadratic, {"a": 0.1, "b": 10.0},
                              relative_step=0.01)
        assert study.dominant().parameter == "b"

    def test_subset_selection(self):
        study = one_at_a_time(quadratic, {"a": 2.0, "b": 1.0},
                              parameters=("a",))
        assert len(study.entries) == 1

    def test_zero_valued_parameter_skipped(self):
        study = one_at_a_time(quadratic, {"a": 0.0, "b": 1.0})
        names = [e.parameter for e in study.entries]
        assert "a" not in names

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InputError):
            one_at_a_time(quadratic, {"a": 1.0, "b": 1.0},
                          parameters=("c",))

    def test_invalid_step(self):
        with pytest.raises(InputError):
            one_at_a_time(quadratic, {"a": 1.0, "b": 1.0},
                          relative_step=1.5)

    def test_nonfinite_baseline_rejected(self):
        with pytest.raises(InputError):
            one_at_a_time(lambda p: float("nan"), {"a": 1.0})

    def test_tornado_rows(self):
        study = one_at_a_time(quadratic, {"a": 2.0, "b": 3.0})
        rows = tornado_rows(study, top_n=1)
        assert len(rows) == 1
        assert rows[0][0] == study.dominant().parameter

    def test_swing_property(self):
        study = one_at_a_time(quadratic, {"a": 2.0, "b": 3.0})
        entry = study.entry("b")
        assert entry.swing == pytest.approx(abs(entry.high - entry.low))

    def test_empty_study_dominant_rejected(self):
        empty = SensitivityStudy(metric_baseline=1.0, entries=())
        with pytest.raises(InputError):
            empty.dominant()


class TestDistributions:
    def test_normal_moments(self):
        rng = np.random.default_rng(1)
        samples = Distribution("normal", 10.0, 2.0).sample(rng, 50_000)
        assert samples.mean() == pytest.approx(10.0, abs=0.05)
        assert samples.std() == pytest.approx(2.0, abs=0.05)

    def test_uniform_bounds(self):
        rng = np.random.default_rng(1)
        samples = Distribution("uniform", 1.0, 3.0).sample(rng, 10_000)
        assert samples.min() >= 1.0
        assert samples.max() <= 3.0

    def test_lognormal_median(self):
        rng = np.random.default_rng(1)
        samples = Distribution("lognormal", 5.0, 1.5).sample(rng,
                                                             50_000)
        assert np.median(samples) == pytest.approx(5.0, rel=0.02)
        assert samples.min() > 0.0

    def test_invalid_kinds(self):
        with pytest.raises(InputError):
            Distribution("triangular", 0.0, 1.0)
        with pytest.raises(InputError):
            Distribution("uniform", 3.0, 1.0)
        with pytest.raises(InputError):
            Distribution("lognormal", -1.0, 1.5)


class TestPropagate:
    def test_linear_model_exact_statistics(self):
        # M = a + b with independent normals: mean/std combine exactly.
        result = propagate(
            lambda p: p["a"] + p["b"],
            {"a": Distribution("normal", 10.0, 3.0),
             "b": Distribution("normal", 5.0, 4.0)},
            n_samples=20_000, seed=7)
        assert result.mean == pytest.approx(15.0, abs=0.1)
        assert result.std == pytest.approx(5.0, abs=0.1)

    def test_reproducible_with_seed(self):
        dists = {"a": Distribution("normal", 10.0, 3.0)}
        r1 = propagate(lambda p: p["a"], dists, n_samples=100, seed=3)
        r2 = propagate(lambda p: p["a"], dists, n_samples=100, seed=3)
        assert np.array_equal(r1.samples, r2.samples)

    def test_percentiles_ordered(self):
        result = propagate(
            lambda p: p["a"],
            {"a": Distribution("lognormal", 1.0, 2.0)},
            n_samples=2000)
        summary = result.margin_summary()
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_probability_above(self):
        result = propagate(
            lambda p: p["a"],
            {"a": Distribution("uniform", 0.0, 1.0)},
            n_samples=10_000)
        assert result.probability_above(0.5) == pytest.approx(0.5,
                                                              abs=0.02)

    def test_failures_counted_not_fatal(self):
        def flaky(params):
            if params["a"] > 0.8:
                raise RuntimeError("limit tripped")
            return params["a"]

        result = propagate(flaky,
                           {"a": Distribution("uniform", 0.0, 1.0)},
                           n_samples=1000)
        assert result.failures == pytest.approx(200, abs=60)
        assert result.samples.max() <= 0.8

    def test_too_many_failures_rejected(self):
        with pytest.raises(InputError):
            propagate(lambda p: 1.0 / 0.0,
                      {"a": Distribution("uniform", 0.0, 1.0)},
                      n_samples=100)

    def test_fixed_parameters_merged(self):
        result = propagate(
            lambda p: p["a"] + p["offset"],
            {"a": Distribution("uniform", 0.0, 1.0)},
            n_samples=100, fixed={"offset": 100.0})
        assert result.samples.min() >= 100.0


class TestSebMargins:
    """End-to-end: the margin numbers for the COSEE chain."""

    def test_delta_t_uncertainty_at_40w(self, seb, seb_lhp):
        from avipack.packaging.seb import SeatElectronicsBox

        def delta_t(params):
            box = SeatElectronicsBox(
                internal_conductance=params["internal_g"])
            return box.solve(40.0, seb_lhp).delta_t_pcb_air

        result = propagate(
            delta_t,
            {"internal_g": Distribution("normal", 1.2, 0.12)},
            n_samples=60, seed=5)
        # Nominal ~25.6 K; P95 must stay within the paper's ~28 K band
        # plus margin.
        assert 20.0 < result.percentile(50.0) < 30.0
        assert result.percentile(95.0) < 35.0
