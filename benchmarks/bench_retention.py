"""Committed retention benchmark baseline: write and regression-compare.

``BENCH_retention.json`` at the repository root pins median timings and
exact counters for the space-reclamation path — folding a
1000-candidate journal into its checkpoint, replaying the compacted
journal, rewriting a half-superseded result store, and the governor's
``directory_bytes`` usage probe.  CI re-measures and compares through
:mod:`bench_harness` with a generous timing tolerance (default 3x)
while the counters — records folded, rows dropped, shards rewritten,
bytes-reclaimed fractions — are compared exactly: a compaction that
folds fewer records or drops the wrong rows is a correctness
regression no matter how fast the box.

Usage::

    python benchmarks/bench_retention.py write     # refresh the baseline
    python benchmarks/bench_retention.py compare   # exit 1 on regression

Run from the repository root (or pass ``--baseline`` explicitly).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import sys
import tempfile
import time

from avipack.durability import SweepJournal, replay_journal
from avipack.results import ResultStoreWriter
from avipack.retention import compact_journal, compact_store, \
    directory_bytes
from bench_harness import Suite, median_ms
from bench_results import synthetic_outcomes

BASELINE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_retention.json"

#: Candidates in the benchmark journal: 1 plan + 2N records, plus
#: ``churn`` extra outcome generations (the resumed-campaign shape
#: retention actually targets — only the latest per fingerprint lives).
N_JOURNAL = 1000
JOURNAL_CHURN = 3
#: Rows in the benchmark store, half of them later superseded.
N_STORE = 20_000
STORE_SHARD_ROWS = 4096


def build_journal(path, n=N_JOURNAL, seed=23, churn=0):
    """An n-candidate campaign journal, optionally churned.

    ``churn`` appends that many extra full outcome generations (as a
    campaign resumed and re-recorded repeatedly does); the checkpoint
    folds them all into the one live outcome per fingerprint, which is
    where compaction earns its bytes back.
    """
    outcomes = synthetic_outcomes(n, seed=seed)
    candidates = tuple(o.candidate for o in outcomes)
    with SweepJournal.create(path, candidates) as journal:
        for index, outcome in enumerate(outcomes):
            journal.record_dispatched(index, outcome.candidate)
            journal.record_outcome(outcome)
    next_seq = 1 + 2 * n
    for _ in range(churn):
        with SweepJournal.append_to(path, next_seq=next_seq) as journal:
            for outcome in outcomes:
                journal.record_outcome(outcome)
        next_seq += n
    return outcomes


def build_half_superseded_store(directory, n=N_STORE, seed=29):
    """``n`` originals plus corrections for every second fingerprint."""
    outcomes = synthetic_outcomes(n, seed=seed)
    corrections = outcomes[::2]
    with ResultStoreWriter(directory,
                           shard_rows=STORE_SHARD_ROWS) as writer:
        writer.add_many(outcomes)
        writer.add_many(corrections)
    return len(corrections)


def run_benches(rounds=5):
    """Measure every pinned scenario; returns the baseline document."""
    benches = {}
    with tempfile.TemporaryDirectory(prefix="bench-retention-") as tmp:
        # -- journal fold: fresh journal per round (compaction is
        #    destructive); the fold fraction is pinned exactly.
        samples = []
        for r in range(rounds):
            path = os.path.join(tmp, f"journal-{r}.jsonl")
            build_journal(path, churn=JOURNAL_CHURN)
            t0 = time.perf_counter()
            compaction = compact_journal(path)
            samples.append(time.perf_counter() - t0)
        reclaimed_pct = round(
            100.0 * compaction.bytes_reclaimed / compaction.bytes_before)
        benches["journal_compact_1k_churned"] = {
            "median_ms": median_ms(samples),
            "counters": {
                "n_folded": compaction.n_folded,
                "n_quarantined": compaction.n_quarantined,
                "reclaimed_pct_floor": min(reclaimed_pct, 60),
            },
        }

        # -- replay of the compacted journal (the restart path a
        #    retention-governed service actually takes).
        compacted = os.path.join(tmp, "journal-0.jsonl")
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            replay = replay_journal(compacted, write_quarantine=False)
            samples.append(time.perf_counter() - t0)
        benches["replay_compacted_journal"] = {
            "median_ms": median_ms(samples),
            "counters": {
                "n_records": replay.n_records,
                "n_outcomes": len(replay.outcomes),
            },
        }

        # -- store rewrite: copy the pristine half-superseded store per
        #    round, compact the copy.
        pristine = os.path.join(tmp, "store-pristine")
        n_dead = build_half_superseded_store(pristine)
        samples = []
        for r in range(rounds):
            directory = os.path.join(tmp, f"store-{r}")
            shutil.copytree(pristine, directory)
            t0 = time.perf_counter()
            compaction = compact_store(directory)
            samples.append(time.perf_counter() - t0)
        benches["store_compact_20k_half_dead"] = {
            "median_ms": median_ms(samples),
            "counters": {
                "rows_dropped": compaction.rows_dropped,
                "shards_rewritten": compaction.shards_rewritten,
                "n_superseded": n_dead,
            },
        }

        # -- the governor's usage probe over a job-tree-sized directory.
        probe_root = os.path.join(tmp, "store-0")
        samples = []
        for _ in range(max(rounds, 9)):
            t0 = time.perf_counter()
            directory_bytes(probe_root)
            samples.append(time.perf_counter() - t0)
        benches["directory_bytes_probe"] = {
            "median_ms": median_ms(samples),
            "counters": {"nonzero": int(directory_bytes(probe_root) > 0)},
        }

    return {
        "schema": 1,
        "unit": "median wall milliseconds over warm rounds",
        "rounds": rounds,
        "n_journal_candidates": N_JOURNAL,
        "n_store_rows": N_STORE,
        "benches": benches,
    }


SUITE = Suite(script="bench_retention.py",
              title=__doc__.splitlines()[0], baseline=BASELINE,
              run_benches=run_benches, rounds=5, discipline="compaction")


if __name__ == "__main__":
    sys.exit(SUITE.main())
