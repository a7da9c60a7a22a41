"""Parallel design-space sweep engine with solver caching.

The many-candidate counterpart of the single-candidate Fig. 1 procedure: sweep
hundreds of candidate packaging stacks (cooling mode × TIM × form
factor × power budget × plenum layout) through the level-1/2/3 pyramid
and the mechanical branch, in parallel, with cross-candidate reuse of
identical solver sub-problems.

* :mod:`~avipack.sweep.space` — :class:`DesignSpace` / :class:`Candidate`
  grid-and-sampler API;
* :mod:`~avipack.sweep.runner` — :class:`SweepRunner`: one serial or
  process-pool route for :class:`SweepTask` records, with a serial
  retry of whatever the pool left unfinished, per-candidate failure
  isolation, watchdog timeouts and supervised recovery
  (see :mod:`avipack.resilience`);
* :mod:`~avipack.sweep.cache` — :class:`SolverCache` keyed memoisation
  with hit/miss accounting;
* :mod:`~avipack.sweep.report` — :class:`SweepReport` observability and
  the ranked compliant-candidate document.
"""

from .cache import (
    DEFAULT_WORKER_CACHE_MAX_ENTRIES,
    CacheStats,
    SolverCache,
    worker_cache,
)
from .report import DurabilityStats, SweepReport, render_sweep_document
from .runner import (
    CandidateFailure,
    CandidateResult,
    SweepRunner,
    SweepTask,
    evaluate_candidate,
)
from .space import Candidate, DesignSpace

__all__ = [
    "DEFAULT_WORKER_CACHE_MAX_ENTRIES",
    "CacheStats",
    "Candidate",
    "CandidateFailure",
    "CandidateResult",
    "DesignSpace",
    "DurabilityStats",
    "SolverCache",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "evaluate_candidate",
    "render_sweep_document",
    "worker_cache",
]
