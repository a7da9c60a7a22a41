"""The route matrix: every route to a ranking gives the same ranking.

One property draws 2–8 pool candidates, an optional seeded fault plan
and a dispatch route (serial, chunked pool, watchdog pool; a worker
crash takes the broken-pool serial retry), runs a journalled campaign
into a result store, then chains post-steps: a crash cut plus resume,
journal compaction, store compaction, re-ingest into a fresh store.
After every step the report, journal and store must agree with a plain
serial run under the same plan.  The served route runs as fixed cases
(a server start is too dear to draw).  Every route is pinned with
``@example``; search longer with ``--hypothesis-profile=route-matrix-long``.
"""

import functools
import os
import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avipack.durability import replay_journal
from avipack.resilience import FaultPlan, FaultSpec
from avipack.results import ResultStore, ingest_journal
from avipack.retention import compact_journal, compact_store
from avipack.service import ServiceClient, ServiceConfig, ThreadedService
from avipack.service import server as server_mod
from avipack.service.jobs import JobStore
from avipack.sweep import SweepRunner
from tests.routes import (
    POOL,
    journal_outcomes,
    outcome_rows,
    projections,
    report_signature,
    served_ranking,
    store_rows,
    store_signature,
)

#: Per-candidate watchdog budget [s]: far above a ~1 ms evaluation.
WATCHDOG_S = 1.0

#: Dispatch routes, as ``SweepRunner`` keyword arguments.
ROUTES = {
    "serial": dict(parallel=False),
    "pool": dict(parallel=True, max_workers=2),
    "watchdog": dict(parallel=True, max_workers=2, timeout_s=WATCHDOG_S),
}


def plan(*specs, **options):
    """A fault plan from ``(site, kind, rate[, scopes])`` tuples."""
    return FaultPlan(specs=tuple(FaultSpec(*spec) for spec in specs),
                     **options)


@dataclass(frozen=True)
class Resume:
    """Cut the journal to ``cut`` of its bytes (a crash image: a verified
    prefix plus at most one torn tail), fold what is left when ``fold``,
    then resume over ``route`` into the store, or a new one."""

    cut: float
    route: str
    fresh_store: bool = False
    fold: bool = False


@dataclass(frozen=True)
class Ingest:
    """Re-ingest the journal into a fresh store, which becomes the store."""

    shard_rows: int


FAULTS = st.sampled_from((
    ("levels.level2", "convergence"), ("levels.level3", "convergence"),
    ("thermal.network.solve", "convergence"),
    ("levels.level2", "model_range"), ("levels.level3", "model_range"),
    ("sweep.cache", "cache_corrupt"),
    ("sweep.worker", "crash"), ("sweep.worker", "hang")))

# Drawn hangs end inside the worker, well within the watchdog budget.
plans = st.none() | st.builds(
    lambda specs, seed, persist: plan(*specs, seed=seed, persist=persist,
                                      hang_seconds=0.05),
    st.lists(st.builds(lambda fault, rate: (*fault, rate), FAULTS,
                       st.sampled_from((0.25, 0.5, 1.0))),
             min_size=1, max_size=3),
    st.integers(0, 2 ** 16), st.sampled_from((1, 3)))

steps = st.lists(st.one_of(
    st.builds(Resume, st.floats(0.0, 1.0), st.sampled_from(sorted(ROUTES)),
              st.booleans(), st.booleans()),
    st.sampled_from(("compact-journal", "compact-store")),
    st.builds(Ingest, st.integers(1, 8))), max_size=4)


def check_route(report, route, fresh):
    """The campaign took ``route``: a pool needs two ``fresh`` (dispatched)
    outcomes, a worker crash there takes the broken-pool serial retry,
    and a watchdog failure means a worker was abandoned."""
    pooled = route != "serial" and len(fresh) > 1
    crashed = any(getattr(o, "error_type", "") == "WorkerCrashError"
                  for o in fresh)
    abandoned = any(getattr(o, "stage", "") == "watchdog" for o in fresh)
    assert ("parallel" in report.mode) == pooled, report.mode
    assert ("broken pool" in report.mode) == (pooled and crashed)
    assert ("watchdog abandoned" in report.mode) == abandoned


def check_parity(reference, report, journal, store):
    """Report, journal and store all agree with the serial reference."""
    expected = report_signature(reference)
    journalled = journal_outcomes(journal)
    assert report_signature(report) == expected
    assert projections(report.outcomes) == projections(reference.outcomes)
    assert projections(journalled) == projections(reference.outcomes)
    # Same records, not merely equal projections: the report holds the
    # journal's latest outcomes and the store's live rows encode them.
    assert outcome_rows(report.outcomes) == outcome_rows(journalled)
    assert store_signature(store) == expected
    assert store_rows(store) == outcome_rows(journalled)


def resume(step, candidates, faults, journal, store):
    with open(journal, "r+b") as stream:
        stream.truncate(int(step.cut * os.path.getsize(journal)))
    crashed = replay_journal(journal, write_quarantine=False)
    if step.fold and crashed.candidates is not None:
        compact_journal(journal)
    runner = SweepRunner(faults=faults, result_store=store,
                         **ROUTES[step.route])
    report = runner.resume(
        journal, space=None if crashed.candidates else candidates)
    stats = report.durability
    assert stats.n_audit_failures == 0
    assert stats.n_resumed == len(crashed.outcomes)
    assert stats.n_resumed + stats.n_recomputed == len(candidates)
    # Each recomputed outcome is added once; restored ones only when
    # the store has never held them.
    assert report.result_store.rows_added == (
        len(candidates) if step.fresh_store else stats.n_recomputed)
    check_route(report, step.route,
                [o for o in report.outcomes
                 if o.fingerprint not in crashed.outcomes])
    return report


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(picks=st.lists(st.integers(0, len(POOL) - 1), min_size=2,
                      max_size=8, unique=True),
       faults=plans, route=st.sampled_from(sorted(ROUTES)), steps=steps)
# Serial; a torn-tail cut folded and resumed over the pool into a fresh
# store; journal compaction; a no-op resume under the watchdog; store
# compaction; re-ingest into one-row shards.
@example(picks=[0, 12, 14, 5, 13, 9], faults=None, route="serial",
         steps=[Resume(0.55, "pool", fresh_store=True, fold=True),
                "compact-journal", Resume(1.0, "watchdog"),
                "compact-store", Ingest(1)])
# Chunked pool with degraded and recovered candidates; a resume into
# the same store leaves superseded rows for store compaction to drop.
@example(picks=[0, 1, 4, 5, 8, 2, 12, 15],
         faults=plan(("levels.level3", "model_range", 0.5),
                     ("levels.level2", "convergence", 0.5), seed=3),
         route="pool", steps=[Resume(0.6, "serial"), "compact-store"])
# The watchdog abandons a worker hung far past its budget; the resume
# backfills a new store.
@example(picks=[0, 4, 9, 6],
         faults=plan(("sweep.worker", "hang", 1.0, (1,)),
                     hang_seconds=3 * WATCHDOG_S),
         route="watchdog", steps=[Resume(0.5, "serial", fresh_store=True)])
# Pool -> worker crash (broken-pool serial retry) -> journal compaction
# -> folded resume under the watchdog -> store compaction -> resume.
@example(picks=[2, 3, 6, 7, 10, 14],
         faults=plan(("sweep.worker", "crash", 1.0, (2,)),
                     ("sweep.cache", "cache_corrupt", 0.5)),
         route="pool",
         steps=["compact-journal", Resume(0.7, "watchdog", fold=True),
                "compact-store", Resume(0.9, "serial")])
def test_every_route_ranks_like_a_serial_run(picks, faults, route, steps):
    candidates = [POOL[i] for i in picks]
    reference = SweepRunner(parallel=False, faults=faults).run(candidates)
    with tempfile.TemporaryDirectory() as work:
        journal = os.path.join(work, "sweep.jsonl")
        store = os.path.join(work, "store")
        report = SweepRunner(faults=faults, result_store=store,
                             **ROUTES[route]).run(candidates,
                                                  journal_path=journal)
        check_route(report, route, report.outcomes)
        check_parity(reference, report, journal, store)
        for number, step in enumerate(steps):
            if isinstance(step, Resume):
                if step.fresh_store:
                    store = os.path.join(work, f"store{number}")
                report = resume(step, candidates, faults, journal, store)
            elif step == "compact-journal":
                compact_journal(journal)
            elif step == "compact-store":
                rows = ResultStore.open(store).n_rows
                dropped = compact_store(store).rows_dropped
                assert ResultStore.open(store).n_rows == rows - dropped \
                    == len(candidates)
            else:
                store = os.path.join(work, f"store{number}")
                summary = ingest_journal(journal, store,
                                         shard_rows=step.shard_rows)
                assert summary.n_rows == len(candidates)
            check_parity(reference, report, journal, store)


#: The served route's fixed cases: server config and fault plan.
SERVED = {
    "serial": (dict(parallel=False), None),
    "pool-crash": (dict(parallel=True, max_workers=2),
                   plan(("sweep.worker", "crash", 1.0, (1,)))),
    "watchdog-faults": (
        dict(parallel=True, max_workers=2, candidate_timeout_s=WATCHDOG_S),
        plan(("levels.level3", "model_range", 0.5),
             ("levels.level2", "convergence", 0.5), seed=5)),
}

#: Candidate fields the pool varies (the rest stay at their defaults).
_FIELDS = ("power_per_module", "tim_name", "series_fraction",
           "vibration_curve", "n_modules", "n_components")


@pytest.mark.parametrize("case", sorted(SERVED))
def test_served_route_ranks_like_a_serial_run(case, sockets, tmp_path,
                                              monkeypatch):
    config, faults = SERVED[case]
    candidates = [POOL[i] for i in (0, 12, 3, 5, 9, 14)]
    reference = SweepRunner(parallel=False, faults=faults).run(candidates)
    if faults is not None:
        monkeypatch.setattr(server_mod, "SweepRunner",
                            functools.partial(SweepRunner, faults=faults))
    config = ServiceConfig(socket_path=os.path.join(sockets, "m.sock"),
                           journal_dir=str(tmp_path / "jobs"),
                           heartbeat_s=0.1, stall_timeout_s=60.0, **config)
    with ThreadedService(config):
        client = ServiceClient(config.socket_path)
        job_id = client.submit(candidates=[
            {name: getattr(c, name) for name in _FIELDS}
            for c in candidates])["job_id"]
        final = client.wait(job_id, timeout_s=120.0)
        served = client.results(job_id)
    expected = report_signature(reference)
    assert final["state"] == "completed"
    assert final["result"]["ranking"] == served_ranking(expected)
    assert [(row["fingerprint"], row["cost_rank"], row["worst_board_c"])
            for row in served["top"]] == expected
    jobs = JobStore(config.journal_dir)
    journalled = journal_outcomes(jobs.journal_path(job_id))
    assert projections(journalled) == projections(reference.outcomes)
    assert store_signature(jobs.result_dir(job_id)) == expected
    assert store_rows(jobs.result_dir(job_id)) == outcome_rows(journalled)
