"""Solver cache semantics and the stable content fingerprint."""

import threading

import numpy as np
import pytest

from avipack.fingerprint import stable_fingerprint
from avipack.packaging.cooling import CoolingTechnique, ModuleEnvelope
from avipack.sweep import DEFAULT_WORKER_CACHE_MAX_ENTRIES, CacheStats, \
    Candidate, SolverCache, worker_cache


class TestSolverCache:
    def test_miss_then_hit(self):
        cache = SolverCache()
        calls = []
        value = cache.get_or_compute("k", lambda: calls.append(1) or 41)
        again = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == again == 41
        assert calls == [1]
        assert cache.hits == 1
        assert cache.misses == 1
        assert len(cache) == 1
        assert "k" in cache

    def test_stats_snapshot(self):
        cache = SolverCache()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        stats = cache.stats()
        assert stats == CacheStats(hits=1, misses=2, entries=2)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1.0 / 3.0)

    def test_clear_resets_everything(self):
        cache = SolverCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert cache.stats() == CacheStats(hits=0, misses=0, entries=0)
        assert "a" not in cache

    def test_max_entries_bounds_the_store(self):
        cache = SolverCache(max_entries=1)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("b", lambda: 2) == 2
        assert len(cache) == 1
        # "b" was not retained but its value still came back correct.
        assert "b" not in cache

    def test_thread_safety_single_flight_counters(self):
        cache = SolverCache()
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for i in range(100):
                cache.get_or_compute(i % 10, lambda i=i: i % 10)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.lookups == 800
        assert stats.entries == 10

    def test_worker_cache_is_a_process_singleton(self):
        assert worker_cache() is worker_cache()

    def test_worker_cache_is_bounded_by_default(self):
        # An unbounded per-worker store would grow for the lifetime of
        # the pool process; the default caps it.
        assert worker_cache().max_entries \
            == DEFAULT_WORKER_CACHE_MAX_ENTRIES

    def test_stats_report_the_bound(self):
        bounded = SolverCache(max_entries=3)
        assert bounded.stats().max_entries == 3
        assert SolverCache().stats().max_entries is None

    def test_merged_stats_add_counters(self):
        merged = CacheStats(1, 2, 3).merged(CacheStats(10, 20, 30))
        assert merged == CacheStats(11, 22, 33)

    def test_merged_stats_keep_the_configured_bound(self):
        # Workers share one configured bound; the merge keeps the first
        # non-None value rather than inventing a combined one.
        merged = CacheStats(1, 2, 3).merged(
            CacheStats(1, 1, 1, max_entries=5))
        assert merged.max_entries == 5
        assert CacheStats(0, 0, 0, max_entries=7).merged(
            CacheStats(0, 0, 0)).max_entries == 7

    def test_empty_stats_hit_rate_zero(self):
        assert CacheStats(0, 0, 0).hit_rate == 0.0


class TestStableFingerprint:
    def test_deterministic_across_calls(self):
        assert stable_fingerprint(1, "a", 2.5) == stable_fingerprint(1, "a", 2.5)

    def test_type_tagged(self):
        # 1 (int) vs 1.0 (float) vs "1" (str) vs True must all differ.
        prints = {stable_fingerprint(v) for v in (1, 1.0, "1", True)}
        assert len(prints) == 4

    def test_order_sensitive_sequences(self):
        assert stable_fingerprint([1, 2]) != stable_fingerprint([2, 1])

    def test_dict_order_insensitive(self):
        assert (stable_fingerprint({"a": 1, "b": 2})
                == stable_fingerprint({"b": 2, "a": 1}))

    def test_ndarray_content_hashed(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        b = np.arange(6, dtype=float).reshape(2, 3)
        c = np.arange(6, dtype=float).reshape(3, 2)
        assert stable_fingerprint(a) == stable_fingerprint(b)
        assert stable_fingerprint(a) != stable_fingerprint(c)

    def test_dataclass_fields_hashed(self):
        a = ModuleEnvelope()
        b = ModuleEnvelope()
        c = ModuleEnvelope(board_length=0.123)
        assert stable_fingerprint(a) == stable_fingerprint(b)
        assert stable_fingerprint(a) != stable_fingerprint(c)

    def test_enum_identity(self):
        assert (stable_fingerprint(CoolingTechnique.DIRECT_AIR_FLOW)
                == stable_fingerprint(CoolingTechnique.DIRECT_AIR_FLOW))
        assert (stable_fingerprint(CoolingTechnique.DIRECT_AIR_FLOW)
                != stable_fingerprint(CoolingTechnique.FREE_CONVECTION))

    def test_none_is_distinct(self):
        assert stable_fingerprint(None) != stable_fingerprint(0)
        assert stable_fingerprint(None) != stable_fingerprint("")


class TestFingerprintGolden:
    """Journals and result stores persist these digests: the encoder's
    bytes must not change, however it is sped up."""

    def test_default_candidate(self):
        assert Candidate().fingerprint \
            == "2bc52d60ec82cc5c2fec4b24640a2df3b004300c"

    def test_default_board(self):
        assert stable_fingerprint(Candidate().board()) \
            == "3675476312daf9f390cce0ec4c823490e41562ca"

    def test_built_rack(self):
        candidate = Candidate(cooling="free_convection", long_case=True)
        assert candidate.fingerprint \
            == "100e4f0948430c36f87b9f1e2e6bd57c6866a419"
        assert stable_fingerprint(candidate.build()[0]) \
            == "05661cd991805e6ac5325a24f0ca59e054f34709"

    def test_every_value_kind(self):
        mixed = (None, True, 7, -2.5, "\u00e9", b"\x00",
                 CoolingTechnique.FREE_CONVECTION,
                 np.arange(4.0).reshape(2, 2), np.float64(1.25),
                 {"b": [1, (2.0,)], "a": {3}}, frozenset({"x"}),
                 ModuleEnvelope(), len)
        assert stable_fingerprint(*mixed) \
            == "7fb94bc518bda4f15c2255e64d1b8adfc1dea38f"
