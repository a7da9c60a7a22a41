"""The route matrix: every route to a ranking gives the same ranking.

One property draws 2–8 pool candidates, an optional seeded fault plan
and a dispatch route (serial, chunked pool, watchdog pool; a worker
crash takes the broken-pool serial retry), runs a journalled campaign
into a result store, then chains post-steps: a crash cut plus resume
(over the same or a re-ordered candidate list), journal compaction,
store compaction, re-ingest into a fresh store.
After every step the report, journal and store must agree with a plain
serial run under the same plan.  The served route runs as fixed cases
(a server start is too dear to draw).  Every route is pinned with
``@example``; search longer with ``--hypothesis-profile=route-matrix-long``.
"""

import dataclasses
import functools
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avipack.durability import replay_journal
from avipack.resilience import FaultPlan, FaultSpec
from avipack.resilience import faults as faults_mod
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
    then resume over ``route`` into the store, or a new one.  With
    ``order``, a permutation of ``range(8)`` whose positions past the
    candidate count are skipped, the resume is passed the candidates in
    that order."""

    cut: float
    route: str
    fresh_store: bool = False
    fold: bool = False
    order: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class Ingest:
    """Re-ingest the journal into a fresh store, which becomes the store."""

    shard_rows: int


#: The ``(site, kind)`` faults a drawn plan picks from; each one fires
#: on some pool candidate (``test_every_drawn_fault_fires``).
FAULT_CHOICES = (
    ("levels.level2", "convergence"), ("levels.level3", "convergence"),
    ("levels.level2", "model_range"), ("levels.level3", "model_range"),
    ("sweep.cache", "cache_corrupt"),
    ("sweep.worker", "crash"), ("sweep.worker", "hang"))
FAULTS = st.sampled_from(FAULT_CHOICES)

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
              st.booleans(), st.booleans(),
              st.none() | st.permutations(range(8)).map(tuple)),
    st.sampled_from(("compact-journal", "compact-store")),
    st.builds(Ingest, st.integers(1, 8))), max_size=4)


@pytest.mark.parametrize("fault", FAULT_CHOICES, ids="-".join)
def test_every_drawn_fault_fires(fault):
    """A draw the matrix can make injects on the serial route: a fault
    whose site no campaign reaches would only test the fault-free
    path."""
    injectors = []
    SweepRunner(parallel=False, faults=plan((*fault, 1.0))).run(
        POOL, progress=lambda _: injectors.append(faults_mod.active()))
    assert injectors[-1].injected >= 1


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
    """Report, journal and store all agree with the ``reference``
    outcomes."""
    expected = report_signature(reference)
    journalled = journal_outcomes(journal)
    assert report_signature(report) == expected
    assert projections(report.outcomes) == projections(reference)
    assert projections(journalled) == projections(reference)
    # Same records, not merely equal projections: the report holds the
    # journal's latest outcomes and the store's live rows encode them.
    assert outcome_rows(report.outcomes) == outcome_rows(journalled)
    assert store_signature(store) == expected
    assert store_rows(store) == outcome_rows(journalled)


def resume(step, candidates, reference, faults, journal, store):
    """Run the ``step``; returns the report and the reference outcomes
    in the order it resumed."""
    with open(journal, "r+b") as stream:
        stream.truncate(int(step.cut * os.path.getsize(journal)))
    crashed = replay_journal(journal, write_quarantine=False)
    if step.fold and crashed.candidates is not None:
        compact_journal(journal)
    # The order the journal's surviving plan gives (a cut may drop the
    # plan a re-ordered resume appended), unless the step re-orders.
    order = list(crashed.candidates or candidates)
    space = None if crashed.candidates else candidates
    if step.order is not None:
        space = order = [order[i] for i in step.order if i < len(order)]
    live = ResultStore.live_fingerprints(store)
    runner = SweepRunner(faults=faults, result_store=store,
                         **ROUTES[step.route])
    report = runner.resume(journal, space=space)
    stats = report.durability
    assert stats.n_audit_failures == 0
    assert stats.n_resumed == len(crashed.outcomes)
    assert stats.n_resumed + stats.n_recomputed == len(candidates)
    # Each recomputed outcome is added once; restored ones only when
    # the store lacks them or holds them under another index.
    assert report.result_store.rows_added == stats.n_recomputed + sum(
        live.get(o.fingerprint) != o.index for o in report.outcomes
        if o.fingerprint in crashed.outcomes)
    check_route(report, step.route,
                [o for o in report.outcomes
                 if o.fingerprint not in crashed.outcomes])
    if faults is not None or [o.fingerprint for o in reference] != \
            [c.fingerprint for c in order]:
        # A fault plan decides by candidate index, so a new order
        # changes what a recomputed candidate meets: restored outcomes
        # keep their values under the new index, recomputed ones match
        # a serial run of the new order.  Under a plan this holds even
        # when this resume keeps the order: an earlier re-ordered
        # resume may have restored an outcome that was computed at
        # another index, and a cut may now drop it for recomputation.
        fresh = SweepRunner(parallel=False, faults=faults).run(order)
        reference = [
            dataclasses.replace(crashed.outcomes[o.fingerprint],
                                index=o.index)
            if o.fingerprint in crashed.outcomes else o
            for o in fresh.outcomes]
        if faults is None:
            assert projections(reference) == projections(fresh.outcomes)
    return report, reference


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
# A complete journal resumed over the reversed list into the same store:
# the cost-and-headroom twins 0 and 12 swap, so the store and a journal
# re-ingest must carry the new indices.
@example(picks=[0, 12, 4, 13], faults=None, route="serial",
         steps=[Resume(1.0, "serial", order=(3, 2, 1, 0)), Ingest(2)])
# A complete journal resumed re-ordered, then cut to nothing: the plan
# now meets every candidate at the index it has in the new order, not
# the one its restored outcome was computed at.
@example(picks=[0, 1, 2],
         faults=plan(("levels.level2", "convergence", 0.25), persist=3),
         route="pool",
         steps=[Resume(1.0, "pool", order=(0, 2, 1, 3, 4, 5, 6, 7)),
                Resume(0.0, "pool")])
def test_every_route_ranks_like_a_serial_run(picks, faults, route, steps):
    candidates = [POOL[i] for i in picks]
    reference = SweepRunner(parallel=False,
                            faults=faults).run(candidates).outcomes
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
                report, reference = resume(step, candidates, reference,
                                           faults, journal, store)
                candidates = [o.candidate for o in reference]
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
