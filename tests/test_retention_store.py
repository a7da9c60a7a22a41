"""Result-store compaction: dead rows gone, ranking byte-identical.

Superseded rows (hidden by ``live_mask``) and the ``.blobs`` pools
older writers left are the only things compaction may remove;
``ranking_signature`` — the store's externally observable contract —
must be byte-identical before and after, including after a simulated
crash at every phase seam.
"""

import os
import shutil

import pytest

from avipack import perf
from avipack.errors import ResultStoreError
from avipack.results import ResultStore, ResultStoreWriter, \
    ranking_signature
from avipack.retention import compact_store
from avipack.sweep.runner import CandidateResult
from avipack.sweep.space import Candidate
from tests.routes import store_rows, store_signature


def make_result(index, *, power=20.0, modules=4, compliant=True,
                cost_rank=1.0, worst_board_c=70.0):
    candidate = Candidate(power_per_module=power, n_modules=modules)
    return CandidateResult(
        index=index, candidate=candidate,
        fingerprint=candidate.fingerprint, compliant=compliant,
        violations=() if compliant else ("thermal",),
        margins={"fundamental_hz": 120.0, "fatigue_margin": 1.4,
                 "deflection_margin": 2.0, "mtbf_hours": 9.0e4},
        worst_board_c=worst_board_c,
        recommended_cooling=candidate.cooling,
        declared_cooling_feasible=True, cost_rank=cost_rank,
        elapsed_s=0.01, worker_pid=os.getpid(),
        cache_hits=2, cache_misses=1)


def build_superseded_store(directory, n=12, shard_rows=4):
    """``n`` originals then corrected rows for every third fingerprint
    — the exact shape a resumed campaign leaves behind."""
    originals = [make_result(i, power=10.0 + i, cost_rank=float(i % 5),
                             worst_board_c=55.0 + (i * 7919 % 25))
                 for i in range(n)]
    corrections = [make_result(i, power=10.0 + i, cost_rank=float(i % 5),
                               worst_board_c=50.0 + (i * 104729 % 20))
                   for i in range(0, n, 3)]
    with ResultStoreWriter(directory, shard_rows=shard_rows) as writer:
        writer.add_many(originals)
        writer.add_many(corrections)
    return len(corrections)


class TestCompaction:
    def test_fully_dead_shard_is_deleted_without_replacement(
            self, tmp_path):
        directory = str(tmp_path / "store")
        first = [make_result(i, power=10.0 + i) for i in range(4)]
        rewritten = [make_result(i, power=10.0 + i, worst_board_c=45.0)
                     for i in range(4)]
        with ResultStoreWriter(directory, shard_rows=4) as writer:
            writer.add_many(first)      # shard 0: all superseded below
            writer.add_many(rewritten)  # shard 1: all live
        compaction = compact_store(directory)
        assert compaction.shards_rewritten == 1
        assert compaction.shards_published == 0
        assert not os.path.exists(
            os.path.join(directory, "shard-000000.rows"))
        store = ResultStore.open(directory)
        assert store.n_rows == 4

    def test_all_live_store_is_untouched(self, tmp_path):
        directory = str(tmp_path / "store")
        with ResultStoreWriter(directory, shard_rows=4) as writer:
            writer.add_many(make_result(i, power=10.0 + i)
                            for i in range(8))
        listing = sorted(os.listdir(directory))
        perf.reset()
        compaction = compact_store(directory)
        assert compaction.changed is False
        assert compaction.rows_dropped == 0
        assert sorted(os.listdir(directory)) == listing
        assert perf.counter("retention.store_compactions") == 0

    def test_retired_blob_pools_are_deleted(self, tmp_path):
        # An all-live store still loses the pools older writers left,
        # with or without a rows partner.
        directory = str(tmp_path / "store")
        with ResultStoreWriter(directory, shard_rows=4) as writer:
            writer.add_many(make_result(i, power=10.0 + i)
                            for i in range(4))
        signature = ranking_signature(ResultStore.open(directory))
        pools = [os.path.join(directory, name)
                 for name in ("shard-000000.blobs", "shard-000099.blobs")]
        for pool in pools:
            with open(pool, "wb") as stream:
                stream.write(b"pickled outcomes nothing reads")
        compaction = compact_store(directory)
        assert compaction.blob_pools_removed == 2
        assert compaction.shards_rewritten == 0
        assert compaction.changed is True
        assert compaction.bytes_reclaimed == 60
        assert not any(os.path.exists(pool) for pool in pools)
        assert ranking_signature(ResultStore.open(directory)) == signature

    def test_quarantined_shards_are_left_as_evidence(self, tmp_path):
        directory = str(tmp_path / "store")
        build_superseded_store(directory)
        victim = os.path.join(directory, "shard-000001.rows")
        payload = bytearray(open(victim, "rb").read())
        payload[-10] ^= 0xFF
        with open(victim, "wb") as stream:
            stream.write(payload)
        ResultStore.open(directory)  # quarantines shard 1
        quarantined = sorted(name for name in os.listdir(directory)
                             if ".quarantine" in name)
        assert quarantined
        compact_store(directory)
        survivors = sorted(name for name in os.listdir(directory)
                           if ".quarantine" in name)
        assert survivors == quarantined

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ResultStoreError):
            compact_store(str(tmp_path / "absent"))

    def test_writer_lock_contention_raises(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = ResultStoreWriter(directory)
        try:
            writer.add(make_result(0))
            with pytest.raises(ResultStoreError):
                compact_store(directory)
        finally:
            writer.close()
        compact_store(directory)  # released lock admits the compactor


class TestCrashSeams:
    """Abort at every phase; signature parity and convergence after."""

    PHASES = ("open", "plan", "publish", "delete", "done")

    @pytest.mark.parametrize("target", PHASES)
    def test_abort_at_phase_preserves_signature_then_converges(
            self, tmp_path, target):
        pristine = str(tmp_path / "pristine")
        build_superseded_store(pristine)
        signature = store_signature(pristine)
        view = store_rows(pristine)

        directory = str(tmp_path / f"crash-{target}")
        shutil.copytree(pristine, directory)

        class Abort(Exception):
            pass

        def hook(phase):
            if phase == target:
                raise Abort(phase)

        with pytest.raises(Abort):
            compact_store(directory, phase_hook=hook)

        # Whatever the abort left behind — originals, duplicates, or
        # the finished state — the store answers identically.
        assert store_signature(directory) == signature
        assert store_rows(directory) == view

        # And a retried pass converges to the fully compacted state.
        compact_store(directory)
        final = ResultStore.open(directory)
        assert ranking_signature(final) == signature
        assert bool(final.live_mask().all())
        assert compact_store(directory).changed is False

    def test_duplicates_after_publish_crash_resolve_latest_wins(
            self, tmp_path):
        directory = str(tmp_path / "store")
        n_dead = build_superseded_store(directory)
        n_total = ResultStore.open(directory).n_rows

        class Abort(Exception):
            pass

        def hook(phase):
            if phase == "delete":
                raise Abort(phase)

        with pytest.raises(Abort):
            compact_store(directory, phase_hook=hook)
        # Replacements are published, originals not yet deleted: the
        # live rows exist twice, and the mask keeps exactly one copy.
        store = ResultStore.open(directory)
        assert store.n_rows > n_total - n_dead
        live = store.live_mask()
        fingerprints = store.column("fingerprint")[live]
        assert len(set(fingerprints.tolist())) == int(live.sum())
        assert int(live.sum()) == n_total - n_dead
