"""Query primitives: top-k ranking, histograms, axis marginals."""

import dataclasses
import math

import numpy as np
import pytest

from avipack.errors import InputError
from avipack.results import (
    ResultStore,
    ResultStoreWriter,
    axis_marginals,
    headroom_histogram,
    ranked_row_ids,
    ranking_signature,
)
from avipack.sweep.runner import CandidateResult
from avipack.sweep.space import Candidate
from tests.routes import report_signature


def synthetic_results(n, seed=0, tie_classes=4):
    """n CandidateResult objects with deliberately tie-heavy cost ranks."""
    rng = np.random.default_rng(seed)
    outcomes = []
    for i in range(n):
        candidate = Candidate(
            power_per_module=float(rng.uniform(5.0, 45.0)),
            n_modules=int(rng.integers(2, 9)),
            n_components=int(rng.integers(4, 12)))
        outcomes.append(CandidateResult(
            index=i, candidate=candidate,
            fingerprint=candidate.fingerprint,
            compliant=bool(rng.random() < 0.65), violations=(),
            margins={"fundamental_hz": float(rng.uniform(60, 400)),
                     "fatigue_margin": float(rng.uniform(0.1, 4.0)),
                     "deflection_margin": float(rng.uniform(0.1, 4.0)),
                     "mtbf_hours": float(rng.uniform(1e4, 1e6))},
            worst_board_c=float(rng.uniform(45.0, 90.0)),
            recommended_cooling=candidate.cooling,
            declared_cooling_feasible=True,
            cost_rank=float(rng.integers(0, tie_classes)),
            elapsed_s=0.001, worker_pid=1,
            cache_hits=0, cache_misses=1))
    return outcomes


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("query") / "store")
    outcomes = synthetic_results(400, seed=7)
    with ResultStoreWriter(directory, shard_rows=128) as writer:
        writer.add_many(outcomes)
    return ResultStore.open(directory), outcomes


def test_full_ranking_matches_sorted_baseline(populated):
    store, outcomes = populated
    assert ranking_signature(store) == report_signature(outcomes)


@pytest.mark.parametrize("k", [1, 2, 5, 17, 100, 399, 400, 10_000])
def test_top_k_equals_full_ranking_prefix(populated, k):
    store, outcomes = populated
    expected = report_signature(outcomes)
    assert ranking_signature(store, k) == expected[:k]


def test_top_k_survives_single_cost_class(tmp_path):
    # Every candidate in one cost class: the coarse partition keeps the
    # whole population, the headroom refinement must bound the pool.
    directory = str(tmp_path / "store")
    outcomes = synthetic_results(300, seed=3, tie_classes=1)
    with ResultStoreWriter(directory) as writer:
        writer.add_many(outcomes)
    store = ResultStore.open(directory)
    expected = report_signature(outcomes)
    for k in (1, 10, 299):
        assert ranking_signature(store, k) == expected[:k]


def test_ranked_row_ids_empty_without_compliant(tmp_path):
    directory = str(tmp_path / "store")
    outcomes = [dataclasses.replace(o, compliant=False)
                for o in synthetic_results(10, seed=1)]
    with ResultStoreWriter(directory) as writer:
        writer.add_many(outcomes)
    store = ResultStore.open(directory)
    assert len(ranked_row_ids(store)) == 0
    assert ranking_signature(store, 5) == []


def test_ranked_row_ids_rejects_bad_k(populated):
    store, _ = populated
    with pytest.raises(InputError):
        ranked_row_ids(store, 0)


def test_headroom_histogram_counts_live_compliant_rows(populated):
    store, outcomes = populated
    counts, edges = headroom_histogram(store, bins=10)
    compliant = [o for o in outcomes if o.compliant]
    assert counts.sum() == len(compliant)
    assert len(edges) == 11
    heads = np.array([o.thermal_headroom_c for o in compliant])
    expected, _ = np.histogram(heads, bins=10)
    assert counts.tolist() == expected.tolist()
    bounded, bounded_edges = headroom_histogram(store, bins=4,
                                                bounds=(-10.0, 40.0))
    assert bounded_edges[0] == -10.0 and bounded_edges[-1] == 40.0


def test_axis_marginals_match_python_groupby(populated):
    store, outcomes = populated
    marginals = axis_marginals(store, "n_modules")
    by_value = {}
    for outcome in outcomes:
        entry = by_value.setdefault(outcome.candidate.n_modules,
                                    {"n": 0, "comp": 0, "heads": []})
        entry["n"] += 1
        if outcome.compliant:
            entry["comp"] += 1
            entry["heads"].append(outcome.thermal_headroom_c)
    assert {m.value for m in marginals} == set(by_value)
    for marginal in marginals:
        entry = by_value[marginal.value]
        assert marginal.n == entry["n"]
        assert marginal.n_compliant == entry["comp"]
        if entry["comp"]:
            assert marginal.best_headroom_c == max(entry["heads"])
            assert marginal.mean_headroom_c == pytest.approx(
                sum(entry["heads"]) / len(entry["heads"]))
        else:
            assert math.isnan(marginal.best_headroom_c)
    # Sorted best-headroom-first.
    bests = [m.best_headroom_c for m in marginals if m.n_compliant]
    assert bests == sorted(bests, reverse=True)


def test_axis_marginals_rejects_non_axis_columns(populated):
    store, _ = populated
    with pytest.raises(InputError):
        axis_marginals(store, "cost_rank")
    with pytest.raises(InputError):
        store.column("not_a_column")
