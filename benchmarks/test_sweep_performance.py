"""Design-space sweep engine performance benchmarks.

Companion to ``test_solver_performance.py``: where that file guards the
numerical kernels, this one guards the batch layer above them — the
sweep engine must make a 200+ candidate grid *cheaper than the sum of
its candidates*, through process fan-out and cross-candidate solver
caching.  The headline check pits the sum of the candidates (a serial
sweep with no cache, each candidate evaluated alone) against the
production configuration (4 workers, per-worker caches) on the same grid
and requires a wall-clock ratio below 0.6, identical rankings, and a
non-trivial cache hit rate.  A plain cold serial sweep, where the
conduction solver still shares factorizations across candidates, must
also lose to the production configuration.
"""

import time

import pytest

from avipack.sweep import DesignSpace, SweepRunner
from avipack.sweep.runner import evaluate_candidate
from avipack.thermal.conduction import clear_factor_cache

#: Cached-parallel / each-candidate-alone wall-clock ratio the engine
#: must beat.  On a 2-vCPU VM it measures 0.24-0.26 (0.15-0.20 before
#: the conduction solver shared factorizations across candidates).
SPEEDUP_CEILING = 0.6

#: Cached-parallel / plain cold-serial wall-clock ratio the engine must
#: beat.  Measured 0.55-0.64 on the same VM: with level-3 board solves
#: reduced to back-substitutions, pool start-up weighs more.
SERIAL_CEILING = 0.85


def evaluate_alone(task):
    """Evaluate one candidate as if it were the only one: no solver
    factorization carried over from earlier candidates."""
    clear_factor_cache()
    return evaluate_candidate(task)


def build_grid():
    """The 240-point benchmark grid.

    Axes are chosen the way a real trade study would lay them out — and
    so that distinct candidates share sub-solves (every TIM/cooling
    choice reuses the rack airflow solve of its power/plenum bucket),
    which is precisely what the cache is for.
    """
    return DesignSpace({
        "power_per_module": (8.0, 12.0, 16.0, 20.0, 24.0),
        "series_fraction": (0.0, 0.3),
        "cooling": ("free_convection", "direct_air_flow",
                    "air_flow_around", "conduction_cooled",
                    "air_flow_through", "liquid_flow_through"),
        "tim_name": ("standard_grease", "silicone_pad",
                     "standard_silver_epoxy",
                     "nanopack_silver_flake_epoxy"),
    })


def test_sweep_parallel_cached_beats_cold_serial(table_printer):
    """The acceptance gate: 240 candidates, <0.6x the sum of their
    separate evaluations and <0.85x a plain cold serial sweep."""
    space = build_grid()
    assert space.size == 240

    # The sum of its candidates: each evaluated alone, no caching.
    t0 = time.perf_counter()
    cold = SweepRunner(parallel=False, use_cache=False,
                       evaluator=evaluate_alone).run(space)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = SweepRunner(parallel=False, use_cache=False).run(space)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = SweepRunner(parallel=True, max_workers=4).run(space)
    t_fast = time.perf_counter() - t0

    ratio = t_fast / t_cold
    serial_ratio = t_fast / t_serial
    table_printer(
        "Sweep engine: cold serial vs 4-worker cached",
        ["configuration", "mode", "wall [s]", "cache hits", "hit rate"],
        [
            ["each candidate alone", cold.mode, f"{t_cold:.2f}",
             cold.cache.hits, f"{cold.cache.hit_rate:.0%}"],
            ["cold serial", serial.mode, f"{t_serial:.2f}",
             serial.cache.hits, f"{serial.cache.hit_rate:.0%}"],
            ["4 workers + cache", fast.mode, f"{t_fast:.2f}",
             fast.cache.hits, f"{fast.cache.hit_rate:.0%}"],
            ["ratio vs alone", "", f"{ratio:.2f}", "", ""],
            ["ratio vs cold serial", "", f"{serial_ratio:.2f}", "", ""],
        ])

    assert len(cold.outcomes) == len(serial.outcomes) \
        == len(fast.outcomes) == 240
    assert not cold.failures and not serial.failures and not fast.failures
    assert fast.cache.hit_rate > 0.0
    # Same space, same verdicts, same deterministic ranking.
    for other in (serial, fast):
        assert [r.index for r in cold.ranked()] \
            == [r.index for r in other.ranked()]
        for a, b in zip(cold.results, other.results):
            assert a.worst_board_c == pytest.approx(b.worst_board_c)
    assert ratio < SPEEDUP_CEILING, \
        f"sweep took {ratio:.2f}x the each-candidate-alone wall clock"
    assert serial_ratio < SERIAL_CEILING, \
        f"sweep took {serial_ratio:.2f}x the cold-serial wall clock"


def test_sweep_cache_collapses_repeat_solves(table_printer):
    """A persistent cache serves a repeated grid entirely from memory —
    the reuse a design-iteration loop (tweak, re-sweep) sees."""
    from avipack.sweep import SolverCache, SweepTask, evaluate_candidate

    space = DesignSpace({
        "power_per_module": (10.0, 20.0),
        "tim_name": ("standard_grease", "nanopack_silver_flake_epoxy"),
        "cooling": ("direct_air_flow", "conduction_cooled"),
    })
    candidates = list(space.grid())
    cache = SolverCache()

    def sweep_once():
        before = cache.stats()
        for index, candidate in enumerate(candidates):
            evaluate_candidate(SweepTask(index, candidate), cache)
        after = cache.stats()
        return (after.hits - before.hits, after.misses - before.misses)

    first_hits, first_misses = sweep_once()
    second_hits, second_misses = sweep_once()
    table_printer(
        "Cache effect across repeated sweeps in one process",
        ["pass", "hits", "misses"],
        [["first", first_hits, first_misses],
         ["second", second_hits, second_misses]])
    assert first_hits > 0
    assert second_misses == 0, "second pass should be fully memoised"
    assert second_hits == first_hits + first_misses


def test_perf_sweep_serial_cached(benchmark):
    """Timed kernel for the benchmark artifact: a 24-point cached
    serial sweep (the inner loop of an interactive trade study)."""
    space = DesignSpace({
        "power_per_module": (10.0, 15.0, 20.0),
        "cooling": ("direct_air_flow", "conduction_cooled"),
        "tim_name": ("standard_grease", "silicone_pad",
                     "nanopack_silver_flake_epoxy", "nanopack_cnt_array"),
    })
    runner = SweepRunner(parallel=False, use_cache=True)
    report = benchmark(runner.run, space)
    assert report.n_candidates == 24
    assert not report.failures


def test_perf_candidate_evaluation(benchmark):
    """Timed kernel: one full Fig. 1 evaluation of a single candidate
    (build + pyramid + mechanical branch), uncached."""
    from avipack.sweep import Candidate, SweepTask, evaluate_candidate

    result = benchmark(evaluate_candidate,
                       SweepTask(0, Candidate(), use_cache=False))
    assert result.compliant
