"""SweepRunner(result_store=...) integration and report top-k parity."""

import os

import pytest

from avipack import perf
from avipack.results import ResultStore, ranking_signature
from avipack.sweep import DesignSpace, SweepRunner, render_sweep_document
from tests.routes import report_signature


def small_space():
    return DesignSpace(axes={
        "power_per_module": [10.0, 25.0, 40.0],
        "n_modules": [2, 4],
        "cooling": ["free_convection", "direct_air_flow"],
    })


def test_run_streams_outcomes_into_the_store(tmp_path):
    store_dir = str(tmp_path / "store")
    perf.reset()
    runner = SweepRunner(parallel=False, result_store=store_dir)
    report = runner.run(small_space())
    assert report.result_store is not None
    assert report.result_store.rows_added == report.n_candidates
    assert report.result_store.shards_sealed >= 1
    assert perf.counter("results.rows_ingested") == report.n_candidates
    store = ResultStore.open(store_dir)
    assert store.n_rows == report.n_candidates
    assert ranking_signature(store) == report_signature(report)
    document = render_sweep_document(report)
    assert "result store" in document


def test_run_without_store_keeps_report_unchanged(tmp_path):
    report = SweepRunner(parallel=False).run(small_space())
    assert report.result_store is None
    assert "result store" not in render_sweep_document(report)


# -- SweepReport.top(): the O(n log k) satellite -----------------------------


def sweep_report():
    return SweepRunner(parallel=False).run(small_space())


@pytest.mark.parametrize("k", [1, 2, 3, 5, 100])
def test_top_k_equals_ranked_prefix(k):
    report = sweep_report()
    assert report.top(k) == report.ranked()[:k]


def test_top_breaks_cost_and_headroom_ties_by_index():
    report = sweep_report()
    full = report.ranked()
    keys = [(o.cost_rank, -o.thermal_headroom_c, o.index) for o in full]
    assert keys == sorted(keys)
    assert report.best() == (full[0] if full else None)


def test_render_uses_selection_not_full_sort():
    report = sweep_report()
    document = render_sweep_document(report, top=2)
    remaining = report.n_compliant - 2
    assert f"... and {remaining} more compliant" in document


def test_run_closes_writer_on_progress_abort(tmp_path):
    store_dir = str(tmp_path / "store")

    class Stop(Exception):
        pass

    seen = []

    def progress(outcome):
        seen.append(outcome)
        if len(seen) == 3:
            raise Stop()

    runner = SweepRunner(parallel=False, result_store=store_dir)
    with pytest.raises(Stop):
        runner.run(small_space(), progress=progress)
    # The writer was closed (partial shard sealed): the journalled
    # prefix of 3 outcomes is already durable and queryable.
    store = ResultStore.open(store_dir)
    assert store.n_rows == 3
    assert not any(name.endswith(".lock.tmp")
                   for name in os.listdir(store_dir))
