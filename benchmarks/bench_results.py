"""Committed result-store benchmark baseline: write and regression-compare.

``BENCH_results.json`` at the repository root pins median timings and
result-store counters for the columnar analytics path — ingest
throughput, verified open, top-k ranking and histogram/marginal
report rendering.  CI re-measures and compares through
:mod:`bench_harness`: timings may grow by the ``--tolerance`` factor
(default 3x), while the *counters* are compared exactly — a store that
seals the wrong number of shards is a real regression no matter how
fast the box.

Usage::

    python benchmarks/bench_results.py write     # refresh the baseline
    python benchmarks/bench_results.py compare   # exit 1 on regression

Run from the repository root (or pass ``--baseline`` explicitly).
"""

from __future__ import annotations

import math
import os
import pathlib
import pickle
import sys
import tempfile
import time

import numpy as np

from avipack import perf
from avipack.results import (
    ResultStore,
    ResultStoreWriter,
    ranked_row_ids,
    ranking_signature,
    render_store_report,
)
from avipack.sweep.runner import CandidateResult
from avipack.sweep.space import Candidate
from bench_harness import Suite, median_ms, timed_samples

BASELINE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_results.json"

#: Rows per benchmark campaign and per shard.  Pinned: the shard count
#: (and therefore ``results.shards_written``) derives from them.
N_ROWS = 20_000
SHARD_ROWS = 4096
TOP_K = 20

_COOLING = ("free_convection", "direct_air_flow", "air_flow_through")
_FORM_FACTORS = ("1/2_atr", "3/4_atr", "1_atr")
_TIMS = ("standard_grease", "dry_joint")


def synthetic_outcomes(n, seed=0, tie_classes=6, compliance=0.65):
    """``n`` seeded :class:`CandidateResult` rows with tie-heavy costs.

    The cost ranks are drawn from a handful of integer classes so the
    top-k partition always faces the tie-resolution path it exercises
    in production campaigns, and every candidate axis the marginal
    queries group by is populated with several distinct values.
    """
    rng = np.random.default_rng(seed)
    outcomes = []
    for i in range(n):
        candidate = Candidate(
            power_per_module=float(rng.uniform(5.0, 45.0)),
            n_modules=int(rng.integers(2, 9)),
            cooling=_COOLING[int(rng.integers(0, len(_COOLING)))],
            tim_name=_TIMS[int(rng.integers(0, len(_TIMS)))],
            form_factor=_FORM_FACTORS[
                int(rng.integers(0, len(_FORM_FACTORS)))],
            n_components=int(rng.integers(4, 12)))
        outcomes.append(CandidateResult(
            index=i, candidate=candidate,
            fingerprint=candidate.fingerprint,
            compliant=bool(rng.random() < compliance), violations=(),
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


def outcome_payloads(outcomes):
    """The pickled outcome payloads a campaign's journal holds."""
    return [pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL)
            for o in outcomes]


def baseline_rank_and_report(payloads, top=TOP_K):
    """The pre-columnar analytics path, over the same campaign.

    Unpickle every outcome payload back into its dataclass, filter and
    sort in Python, format a top table — what campaign reporting cost
    before the typed columns existed.  Returns the ranking signature and
    the rendered table so callers can check byte-identical ordering.
    """
    outcomes = [pickle.loads(payload) for payload in payloads]
    compliant = [o for o in outcomes if o.compliant]
    ranked = sorted(compliant, key=lambda o: (o.cost_rank,
                                              -o.thermal_headroom_c,
                                              o.index))[:top]
    lines = [f"{position:>4}  {o.fingerprint}  {o.cost_rank:6.1f}  "
             f"{o.worst_board_c:7.2f}"
             for position, o in enumerate(ranked, start=1)]
    signature = [(o.fingerprint, o.cost_rank, o.worst_board_c)
                 for o in ranked]
    return signature, "\n".join(lines)


def store_rank_and_report(store, top=TOP_K):
    """The columnar path: partition-select the top, render from columns."""
    signature = ranking_signature(store, top)
    return signature, render_store_report(store, top=top)


def build_store(directory, n_rows=N_ROWS, seed=17):
    outcomes = synthetic_outcomes(n_rows, seed=seed)
    writer = ResultStoreWriter(directory, shard_rows=SHARD_ROWS)
    try:
        writer.add_many(outcomes)
    finally:
        writer.close()
    return outcomes


def run_benches(rounds=9):
    """Measure every pinned scenario; returns the baseline document."""
    benches = {}
    with tempfile.TemporaryDirectory(prefix="bench-results-") as tmp:
        outcomes = synthetic_outcomes(N_ROWS, seed=17)

        # Ingest: fresh directory per round, counters from a clean pass.
        ingest_rounds = min(rounds, 3)
        samples = []
        for r in range(ingest_rounds):
            directory = os.path.join(tmp, f"ingest-{r}")
            perf.reset("results.rows_ingested")
            perf.reset("results.shards_written")
            t0 = time.perf_counter()
            writer = ResultStoreWriter(directory, shard_rows=SHARD_ROWS)
            try:
                writer.add_many(outcomes)
            finally:
                writer.close()
            samples.append(time.perf_counter() - t0)
        benches["store_ingest_20k"] = {
            "median_ms": median_ms(samples),
            "counters": {
                "results.rows_ingested":
                    perf.counter("results.rows_ingested"),
                "results.shards_written":
                    perf.counter("results.shards_written"),
            },
        }

        directory = os.path.join(tmp, "ingest-0")
        benches["store_open_verify"] = {
            "median_ms": median_ms(timed_samples(
                lambda: ResultStore.open(directory), rounds)),
            "counters": {
                "results.shards_quarantined": 0,
                "shards": math.ceil(N_ROWS / SHARD_ROWS),
            },
        }

        store = ResultStore.open(directory)
        store.column("cost_rank")  # warm the column cache once
        benches["topk_20_of_20k"] = {
            "median_ms": median_ms(timed_samples(
                lambda: ranked_row_ids(store, TOP_K), rounds)),
            "counters": {"rows": int(store.n_rows)},
        }
        benches["columnar_report_20k"] = {
            "median_ms": median_ms(timed_samples(
                lambda: render_store_report(store, top=TOP_K), rounds)),
            "counters": {},
        }

    return {
        "schema": 1,
        "unit": "median wall milliseconds over warm rounds",
        "rounds": rounds,
        "n_rows": N_ROWS,
        "shard_rows": SHARD_ROWS,
        "benches": benches,
    }


SUITE = Suite(script="bench_results.py",
              title=__doc__.splitlines()[0], baseline=BASELINE,
              run_benches=run_benches, rounds=9, discipline="store")


if __name__ == "__main__":
    sys.exit(SUITE.main())
