"""Fault injection: deterministic decisions, per-kind behaviour, cleanup."""

import os

import pytest

from avipack.errors import (
    CacheCorruptionError,
    ConvergenceError,
    InputError,
    ModelRangeError,
    WatchdogTimeout,
    WorkerCrashError,
)
from avipack.resilience import FaultInjector, FaultPlan, FaultSpec
from avipack.resilience import faults as faults_mod
from avipack.sweep import SolverCache


@pytest.fixture(autouse=True)
def _clean_installation():
    faults_mod.uninstall()
    yield
    faults_mod.uninstall()


def plan(*specs, **kwargs):
    return FaultPlan(specs=tuple(specs), **kwargs)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            FaultSpec("site", "meteor_strike")

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(InputError):
            FaultSpec("site", "convergence", rate=1.5)

    def test_empty_site_rejected(self):
        with pytest.raises(InputError):
            FaultSpec("", "convergence")

    def test_bad_persist_rejected(self):
        with pytest.raises(InputError):
            FaultPlan(specs=(), persist=0)


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        p = plan(FaultSpec("levels", "convergence", rate=0.5))

        def decisions():
            injector = FaultInjector(p)
            hit = []
            for scope in range(50):
                with injector.scoped(scope):
                    try:
                        injector.fire("levels.level2")
                    except ConvergenceError:
                        hit.append(scope)
            return hit

        first, second = decisions(), decisions()
        assert first == second
        assert 5 < len(first) < 45  # a real 0.5-ish split, not all-or-nothing

    def test_decisions_independent_of_evaluation_order(self):
        p = plan(FaultSpec("levels", "convergence", rate=0.5))

        def decisions(order):
            injector = FaultInjector(p)
            hit = set()
            for scope in order:
                with injector.scoped(scope):
                    try:
                        injector.fire("levels.level2")
                    except ConvergenceError:
                        hit.add(scope)
            return hit

        forward = decisions(range(50))
        backward = decisions(reversed(range(50)))
        assert forward == backward

    def test_seed_changes_decisions(self):
        scopes = range(200)

        def hit_set(seed):
            injector = FaultInjector(plan(
                FaultSpec("x", "convergence", rate=0.5), seed=seed))
            hit = set()
            for scope in scopes:
                with injector.scoped(scope):
                    try:
                        injector.fire("x")
                    except ConvergenceError:
                        hit.add(scope)
            return hit

        assert hit_set(1) != hit_set(2)

    def test_rate_zero_never_fires_rate_one_always(self):
        injector = FaultInjector(plan(
            FaultSpec("quiet", "convergence", rate=0.0),
            FaultSpec("loud", "convergence", rate=1.0)))
        injector.fire("quiet")  # no raise
        with pytest.raises(ConvergenceError):
            injector.fire("loud")


class TestMatching:
    def test_prefix_matches_bracketed_sites(self):
        injector = FaultInjector(plan(
            FaultSpec("levels.level3", "model_range")))
        with pytest.raises(ModelRangeError):
            injector.fire("levels.level3[m2]")
        injector2 = FaultInjector(plan(
            FaultSpec("levels.level3", "model_range")))
        injector2.fire("levels.level2")  # prefix mismatch: no raise

    def test_scope_allowlist_targets_candidates(self):
        injector = FaultInjector(plan(
            FaultSpec("site", "convergence", scopes=(3,))))
        with injector.scoped(2):
            injector.fire("site")  # not in allow-list
        with injector.scoped(3):
            with pytest.raises(ConvergenceError):
                injector.fire("site")


class TestPersistence:
    def test_fault_clears_after_persist_occurrences(self):
        injector = FaultInjector(plan(FaultSpec("site", "convergence")))
        with injector.scoped(0):
            with pytest.raises(ConvergenceError):
                injector.fire("site")
            injector.fire("site")  # occurrence 1 >= persist=1: recovered
        assert injector.injected == 1

    def test_persist_two_faults_twice(self):
        injector = FaultInjector(plan(FaultSpec("site", "convergence"),
                                      persist=2))
        with injector.scoped(0):
            for _ in range(2):
                with pytest.raises(ConvergenceError):
                    injector.fire("site")
            injector.fire("site")

    def test_occurrences_counted_per_scope(self):
        injector = FaultInjector(plan(FaultSpec("site", "convergence")))
        for scope in (0, 1):
            with injector.scoped(scope):
                with pytest.raises(ConvergenceError):
                    injector.fire("site")


class TestKinds:
    def test_model_range(self):
        injector = FaultInjector(plan(FaultSpec("s", "model_range")))
        with pytest.raises(ModelRangeError):
            injector.fire("s")

    def test_cache_corrupt(self):
        injector = FaultInjector(plan(FaultSpec("s", "cache_corrupt")))
        with pytest.raises(CacheCorruptionError):
            injector.fire("s")

    def test_crash_in_parent_raises_instead_of_exiting(self):
        injector = FaultInjector(plan(FaultSpec("s", "crash")))
        assert injector.in_parent
        with pytest.raises(WorkerCrashError):
            injector.fire("s")

    def test_hang_in_parent_is_immediate(self):
        injector = FaultInjector(plan(FaultSpec("s", "hang"),
                                      hang_seconds=3600.0))
        with pytest.raises(WatchdogTimeout):
            injector.fire("s")  # must not sleep an hour

    def test_hang_in_worker_sleeps_then_raises(self):
        p = FaultPlan(specs=(FaultSpec("s", "hang"),),
                      hang_seconds=0.01, parent_pid=os.getpid() + 1)
        injector = FaultInjector(p)
        assert not injector.in_parent
        with pytest.raises(WatchdogTimeout):
            injector.fire("s")


class TestInstallation:
    def test_fire_is_noop_without_plan(self):
        assert faults_mod.active() is None
        faults_mod.fire("anything")  # no raise

    def test_install_and_uninstall(self):
        injector = faults_mod.install(plan(FaultSpec("s", "convergence")))
        assert faults_mod.active() is injector
        with pytest.raises(ConvergenceError):
            faults_mod.fire("s")
        faults_mod.uninstall()
        faults_mod.fire("s")

    def test_reinstalling_same_plan_preserves_counters(self):
        p = plan(FaultSpec("s", "convergence"))
        first = faults_mod.install(p)
        with pytest.raises(ConvergenceError):
            faults_mod.fire("s")
        again = faults_mod.install(p)
        assert again is first
        faults_mod.fire("s")  # counter survived: fault already spent

    def test_installing_different_plan_replaces(self):
        first = faults_mod.install(plan(FaultSpec("s", "convergence")))
        second = faults_mod.install(plan(FaultSpec("s", "model_range")))
        assert second is not first

    def test_configure_none_uninstalls(self):
        faults_mod.install(plan(FaultSpec("s", "convergence")))
        assert faults_mod.configure(None) is None
        assert faults_mod.active() is None


class TestCacheCorruptionTolerance:
    def test_injected_corruption_hits_loads_only(self):
        faults_mod.install(plan(FaultSpec("sweep.cache", "cache_corrupt")))
        cache = SolverCache()
        assert cache.get_or_compute("k", lambda: 41) == 41  # store: no load
        assert cache.get_or_compute("k", lambda: 42) == 42  # corrupt hit
        assert cache.corrupt == 1
        assert cache.get_or_compute("k", lambda: 43) == 42  # fault spent

    def test_stats_roundup(self):
        from avipack.sweep import CacheStats
        a = CacheStats(hits=1, misses=2, entries=2, corrupt=1)
        b = CacheStats(hits=3, misses=4, entries=4)
        merged = a.merged(b)
        assert merged.corrupt == 1
        assert merged.hits == 4
        # default keeps historical equality semantics
        assert CacheStats(hits=1, misses=2, entries=2) \
            == CacheStats(hits=1, misses=2, entries=2, corrupt=0)

    def test_clear_resets_corrupt_counter(self):
        faults_mod.install(plan(FaultSpec("sweep.cache", "cache_corrupt")))
        cache = SolverCache()
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 2)
        assert cache.corrupt == 1
        cache.clear()
        assert cache.stats() == type(cache.stats())(hits=0, misses=0,
                                                    entries=0, corrupt=0)
