"""One vocabulary for route parity: candidates, signatures, projections.

Every route to a ranking — serial, chunked pool, watchdog pool,
broken-pool serial retry, served, cut-and-resume, journal compaction,
store compaction, journal re-ingest — must rank like a plain serial run
and agree with it candidate by candidate.  ``test_route_matrix.py``
checks that contract; every other suite that compares rankings or
outcomes uses these helpers too, so there is one definition of "the
same".
"""

import math

import numpy as np

from avipack.durability import replay_journal
from avipack.durability.journal import outcome_kind
from avipack.results import ROW_DTYPE, ResultStore, ranking_signature
from avipack.results.schema import fill_row
from avipack.sweep import Candidate, DesignSpace, SweepReport, SweepRunner
from avipack.sweep.cache import CacheStats


def _cheap(**fields):
    return Candidate(n_modules=2, n_components=4, **fields)


#: Cheap candidates (2 modules, 4 components, ~1 ms each): compliant
#: (8 and 14 W), non-compliant (20 W) and failing points.  The TIMs tie
#: on headroom at different cost; the vibration-curve twins tie on
#: cost *and* headroom with their partners, so the index tie-break runs.
POOL = (
    *(_cheap(power_per_module=power, tim_name=tim, series_fraction=series)
      for power in (8.0, 14.0, 20.0)
      for tim in ("standard_grease", "nanopack_cnt_array")
      for series in (0.0, 0.6)),
    _cheap(power_per_module=8.0, series_fraction=0.0, vibration_curve="B"),
    _cheap(power_per_module=14.0, series_fraction=0.6, vibration_curve="E"),
    _cheap(power_per_module=1.0e6),  # fails at evaluation (model range)
    _cheap(tim_name="unobtainium"),  # fails at build (unknown material)
)


#: Mixed-compliance grid (8 of 12 comply) the service suites submit.
SERVICE_AXES = {
    "power_per_module": [8.0, 12.0, 16.0, 20.0, 24.0, 28.0],
    "cooling": ["direct_air_flow", "air_flow_through"],
}


def service_signature():
    """:func:`report_signature` of a serial run over ``SERVICE_AXES``."""
    space = DesignSpace(axes={name: tuple(values)
                              for name, values in SERVICE_AXES.items()})
    return report_signature(SweepRunner(parallel=False).run(space))


def report_signature(report):
    """``(fingerprint, cost_rank, worst_board_c)`` per ranked candidate.

    The in-memory twin of :func:`avipack.results.ranking_signature`.
    ``report`` is a :class:`~avipack.sweep.SweepReport` or a plain
    sequence of outcomes, ranked the report's way.
    """
    if not isinstance(report, SweepReport):
        report = SweepReport(tuple(report), 0.0, "serial", 1,
                             CacheStats(0, 0, 0))
    return [(o.fingerprint, o.cost_rank, o.worst_board_c)
            for o in report.ranked()]


def store_signature(directory):
    """The ranking the result store in ``directory`` serves."""
    return ranking_signature(ResultStore.open(directory))


def served_ranking(signature):
    """``signature`` in a served job result's form (worst rounded)."""
    return [[fp, cost, round(worst, 9)] for fp, cost, worst in signature]


def projection(outcome):
    """What every route must agree on for one candidate.

    Dropped because they vary by route: wall times, worker pid, cache
    counters, perf deltas and recovery-trail timings.  A hung candidate
    fails as ``WatchdogTimeout`` on every route, but the stage and
    message name the watchdog or the worker, so neither is kept.
    """
    done = not hasattr(outcome, "error_type")
    return (outcome.index, outcome_kind(outcome),
            None if done else outcome.error_type,
            outcome.degraded, done and outcome.recovered,
            outcome.compliant,
            outcome.cost_rank if done else None,
            outcome.worst_board_c if done else None,
            tuple(sorted(outcome.margins.items())) if done else None)


def projections(outcomes):
    """Fingerprint -> :func:`projection`, for any outcome collection."""
    return {o.fingerprint: projection(o) for o in outcomes}


def journal_outcomes(path):
    """The latest intact outcome per candidate in a journal."""
    return list(replay_journal(path, write_quarantine=False)
                .outcomes.values())


def _by_fingerprint(rows):
    return {row["fingerprint"].decode("ascii"):
            tuple(None if isinstance(v, float) and math.isnan(v) else v
                  for v in row.tolist())
            for row in rows}


def outcome_rows(outcomes):
    """Fingerprint -> every column of the store row each outcome makes.

    Unlike :func:`projection` this keeps the route-dependent fields, so
    it checks that two records of one campaign are the *same* outcome.
    """
    rows = np.zeros(len(outcomes), ROW_DTYPE)
    for position, outcome in enumerate(outcomes):
        fill_row(rows, position, outcome)
    return _by_fingerprint(rows)


def store_rows(directory):
    """Fingerprint -> every column of the store's live row."""
    store = ResultStore.open(directory)
    live = store.live_mask()
    rows = np.zeros(int(live.sum()), ROW_DTYPE)
    for name in ROW_DTYPE.names:
        rows[name] = store.column(name)[live]
    return _by_fingerprint(rows)
