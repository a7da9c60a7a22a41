"""Result-store analytics: zero-unpickle vs the dataclass baseline.

Not a paper figure: this is the ISSUE-8 acceptance benchmark.  A
100 000-candidate synthetic campaign is written once into a columnar
store; top-k ranking plus report generation through the typed columns
must be at least an order of magnitude faster *and* an order of
magnitude leaner in peak memory than unpickling every outcome back
into its dataclass and sorting in Python — with byte-identical
rankings, proven by comparing the two signatures entry for entry.
"""

import math
import time
import tracemalloc

import pytest

from avipack import perf
from bench_results import (
    SHARD_ROWS,
    TOP_K,
    baseline_rank_and_report,
    outcome_payloads,
    store_rank_and_report,
    synthetic_outcomes,
)
from avipack.results import ResultStore, ResultStoreWriter

N_CAMPAIGN = 100_000
MIN_FACTOR = 10.0


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """The 1e5-row store, the counters its ingest produced and the
    pickled outcome payloads the campaign's journal would hold."""
    directory = str(tmp_path_factory.mktemp("campaign") / "store")
    outcomes = synthetic_outcomes(N_CAMPAIGN, seed=11)
    perf.reset()
    writer = ResultStoreWriter(directory, shard_rows=SHARD_ROWS)
    try:
        writer.add_many(outcomes)
    finally:
        writer.close()
    return {"directory": directory,
            "ingest_counters": perf.counters("results."),
            "payloads": outcome_payloads(outcomes)}


def _timed(call):
    t0 = time.perf_counter()
    value = call()
    return value, time.perf_counter() - t0


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_store_analytics_10x_faster_and_10x_leaner(campaign,
                                                   table_printer):
    store = ResultStore.open(campaign["directory"])
    assert store.n_rows == N_CAMPAIGN

    # Timing passes first (tracemalloc distorts wall time), memory after.
    (store_signature, _), store_s = _timed(
        lambda: store_rank_and_report(store, top=TOP_K))
    payloads = campaign["payloads"]
    (base_signature, _), base_s = _timed(
        lambda: baseline_rank_and_report(payloads, top=TOP_K))
    assert store_signature == base_signature

    cold = ResultStore.open(campaign["directory"])
    store_peak = _peak_bytes(
        lambda: store_rank_and_report(cold, top=TOP_K))
    base_peak = _peak_bytes(
        lambda: baseline_rank_and_report(payloads, top=TOP_K))

    table_printer(
        "RESULT-STORE ANALYTICS vs DATACLASS BASELINE (1e5 candidates)",
        ["path", "wall [s]", "peak [MB]"],
        [["columnar store", f"{store_s:.3f}",
          f"{store_peak / 1e6:.1f}"],
         ["unpickle + sorted", f"{base_s:.3f}",
          f"{base_peak / 1e6:.1f}"],
         ["factor", f"{base_s / store_s:.1f}x",
          f"{base_peak / store_peak:.1f}x"]])

    assert base_s >= MIN_FACTOR * store_s, (
        f"store path only {base_s / store_s:.1f}x faster")
    assert base_peak >= MIN_FACTOR * store_peak, (
        f"store path only {base_peak / store_peak:.1f}x leaner")


def test_ingest_counters_are_exact(campaign):
    counters = campaign["ingest_counters"]
    assert counters["results.rows_ingested"] == N_CAMPAIGN
    assert counters["results.shards_written"] == math.ceil(
        N_CAMPAIGN / SHARD_ROWS)
    assert counters.get("results.shards_quarantined", 0) == 0
