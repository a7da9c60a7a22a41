"""Keyed memo cache for solver results, with hit/miss accounting.

One sweep over a cooling-mode × TIM × form-factor × power grid reaches
the *same* sub-problems from many candidates: every TIM choice shares
the rack airflow solve, every cooling mode shares the level-1 technique
scan at a given power, and so on.  :class:`SolverCache` memoises those
sub-evaluations under stable content fingerprints
(:func:`avipack.fingerprint.stable_fingerprint`) so each distinct solve
runs once per process.

The cache is deliberately duck-typed: solver entry points accept any
object with ``get_or_compute(key, compute)`` so the numerical modules
never import :mod:`avipack.sweep`.

In a parallel sweep each worker process holds its own
:func:`worker_cache` singleton that persists across the tasks the worker
executes; per-task hit/miss deltas travel back with each result and are
aggregated by the runner into sweep-level statistics.

The cache lives in process memory only.  A stored entry that cannot be
read back — any error on the load path, such as a fault injected at
the ``"sweep.cache"`` site — is never allowed to poison a campaign:
the entry is evicted, counted in the ``corrupt`` statistic, and the
lookup falls through to a recompute, exactly like a miss.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..resilience.faults import fire as _fire_fault

__all__ = ["DEFAULT_WORKER_CACHE_MAX_ENTRIES", "CacheStats", "SolverCache",
           "resolve_cache", "worker_cache"]

#: Default bound on the per-process :func:`worker_cache` singleton.  A
#: resumed long-running campaign funnels every candidate through the
#: same worker caches, so an unbounded store grows with the design
#: space; the bound keeps worker memory flat (new results past the
#: bound are returned but not retained).
DEFAULT_WORKER_CACHE_MAX_ENTRIES = 4096


@dataclass(frozen=True)
class CacheStats:
    """Aggregate hit/miss counters of one cache (or one sweep).

    ``corrupt`` counts entries that were present but unreadable and
    were therefore evicted and recomputed.  ``max_entries`` reports the
    configured retention bound (``None`` = unbounded) so sweep reports
    can show how the cache was provisioned.
    """

    hits: int
    misses: int
    entries: int
    corrupt: int = 0
    max_entries: Optional[int] = None

    @property
    def lookups(self) -> int:
        """Total lookups answered."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from memory (0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def merged(self, other: "CacheStats") -> "CacheStats":
        """Combine counters from another cache (e.g. another worker).

        Every sweep worker shares one configured bound, so the merged
        record keeps the first non-``None`` ``max_entries``.
        """
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          entries=self.entries + other.entries,
                          corrupt=self.corrupt + other.corrupt,
                          max_entries=(self.max_entries
                                       if self.max_entries is not None
                                       else other.max_entries))


class SolverCache:
    """Content-keyed memo store with hit/miss counters.

    Thread-safe for the simple reason sweeps need: concurrent
    ``get_or_compute`` calls never corrupt the store.  A missed key may
    be computed twice under a race (last write wins) — acceptable for
    pure solver functions, and the serial/process-pool runners never
    race anyway.

    Parameters
    ----------
    max_entries:
        Optional bound on stored results.  When full, new results are
        still returned but not retained (sweeps favour predictability
        over eviction churn).
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._store: Dict[Any, Any] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self.max_entries = max_entries

    @property
    def hits(self) -> int:
        """Lookups served from the store so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to compute so far."""
        return self._misses

    @property
    def corrupt(self) -> int:
        """Entries found unreadable (evicted and recomputed) so far."""
        return self._corrupt

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Any) -> bool:
        return key in self._store

    def get_or_compute(self, key: Any, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        An entry whose load fails (a fault injected at the
        ``"sweep.cache"`` site) is evicted, counted in :attr:`corrupt`,
        and treated as a miss.
        """
        with self._lock:
            if key in self._store:
                try:
                    _fire_fault("sweep.cache")
                except Exception:
                    self._corrupt += 1
                    self._misses += 1
                    del self._store[key]
                else:
                    self._hits += 1
                    return self._store[key]
            else:
                self._misses += 1
        value = compute()
        with self._lock:
            if self.max_entries is None or len(self._store) < self.max_entries:
                self._store[key] = value
        return value

    def stats(self) -> CacheStats:
        """Snapshot of the counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(self._store),
                              corrupt=self._corrupt,
                              max_entries=self.max_entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
            self._corrupt = 0


#: Per-process cache used by sweep worker processes.  Living at module
#: scope, it survives across the many tasks one pool worker executes, so
#: later candidates reuse earlier candidates' sub-solves.
_WORKER_CACHE: Optional[SolverCache] = None


def worker_cache() -> SolverCache:
    """The calling process's sweep cache singleton (created on demand).

    Bounded at :data:`DEFAULT_WORKER_CACHE_MAX_ENTRIES` by default so a
    resumed multi-hour campaign cannot grow worker memory without
    limit; the bound travels into :class:`CacheStats.max_entries` and
    the sweep report's cache line.
    """
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = SolverCache(
            max_entries=DEFAULT_WORKER_CACHE_MAX_ENTRIES)
    return _WORKER_CACHE


def resolve_cache(use_cache: bool, cache: Optional[SolverCache] = None, *,
                  fresh: bool = False) -> Optional[SolverCache]:
    """The cache one evaluation (or one in-process run) should use.

    ``None`` when caching is off; else an explicitly passed ``cache``;
    else the :func:`worker_cache` singleton — or, with ``fresh``, a new
    bounded :class:`SolverCache`, so an in-process run's reuse stays
    within that run.
    """
    if not use_cache:
        return None
    if cache is not None:
        return cache
    if fresh:
        return SolverCache(max_entries=DEFAULT_WORKER_CACHE_MAX_ENTRIES)
    return worker_cache()
