"""Journals and result stores written by older versions still load.

Artifacts written before the batch route was removed pickled outcomes
that carried a ``batched`` flag and solver counters that carried
``batch_width``/``batched_solves``.  Both are frozen dataclasses without
slots, so unpickling puts the retired names back into the instance
``__dict__`` as stray attributes, outside every comparison.  Replay, the
resume audit, the result store and the ranking must come out identical
to the same campaign without them.

Stores written before the blob pool was removed also hold one
``.blobs`` file per shard, a checksummed pool of pickled outcomes that
the rows' ``blob_*`` columns point into.  Readers ignore those files,
and compaction deletes them.
"""

import dataclasses
import hashlib
import os
import pickle
import zlib

import numpy as np
import pytest

from avipack.durability import audit_outcomes, replay_journal
from avipack.durability.journal import SweepJournal
from avipack.fingerprint import stable_fingerprint
from avipack.results import ResultStore, ResultStoreWriter, \
    ranking_signature
from avipack.results.schema import ROW_DTYPE, fill_row
from avipack.durability.files import atomic_write
from avipack.results.store import _header_line, publish_shard
from avipack.retention import compact_store
from avipack.sweep import Candidate, CandidateResult, DesignSpace, \
    SweepRunner
from tests.routes import report_signature

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})

#: Retired row columns that located an outcome in the ``.blobs`` pool.
_BLOB_COLUMNS = ("blob_offset", "blob_length", "blob_crc32")

#: Header magic of the retired ``.blobs`` pool.
_BLOBS_MAGIC = "avipack-results-blobs/1"


def legacy(outcome):
    """``outcome`` with the retired attributes its old pickle carried."""
    perf = []
    for stats in outcome.perf:
        stats = dataclasses.replace(stats)
        object.__setattr__(stats, "batched_solves", 1)
        object.__setattr__(stats, "batch_width", 4)
        perf.append(stats)
    old = dataclasses.replace(outcome, perf=tuple(perf))
    if isinstance(outcome, CandidateResult):
        object.__setattr__(old, "batched", True)
    return old


def write_journal(path, candidates, outcomes):
    with SweepJournal.create(
            path, tuple(candidates),
            space_fingerprint=stable_fingerprint(tuple(candidates))) \
            as journal:
        for outcome in outcomes:
            journal.record_outcome(outcome)
    return path


def write_legacy_shard(directory, number, outcomes, batched):
    """One shard pair as older writers laid it out: the outcomes pickled
    into a checksummed ``.blobs`` pool that the ``.rows`` point into,
    ``batched`` forced."""
    rows = np.zeros(len(outcomes), dtype=ROW_DTYPE)
    blobs = bytearray()
    for position, outcome in enumerate(outcomes):
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        fill_row(rows, position, outcome)
        rows[position]["blob_offset"] = len(blobs)
        rows[position]["blob_length"] = len(blob)
        rows[position]["blob_crc32"] = zlib.crc32(blob) & 0xFFFFFFFF
        blobs += blob
    rows["batched"] = batched
    base = os.path.join(directory, f"shard-{number:06d}")
    atomic_write(base + ".blobs",
                 _header_line(_BLOBS_MAGIC, len(rows),
                              f"{zlib.crc32(blobs) & 0xFFFFFFFF:08x}",
                              hashlib.sha256(blobs).hexdigest(), len(blobs)),
                 bytes(blobs))
    publish_shard(directory, number, rows)


def write_legacy_store(directory, outcomes, batched):
    directory.mkdir()
    write_legacy_shard(str(directory), 0, outcomes, batched)
    return str(directory)


def write_store(directory, outcomes):
    """The same outcomes through today's writer."""
    with ResultStoreWriter(str(directory)) as writer:
        writer.add_many(outcomes)
    return str(directory)


@pytest.fixture(scope="module")
def campaign():
    candidates = list(SPACE.grid()) + [Candidate(tim_name="no_such_tim")]
    report = SweepRunner(parallel=False, use_cache=False).run(candidates)
    assert report.failures and report.results
    assert all(o.perf for o in report.results)
    return candidates, list(report.outcomes)


@pytest.fixture()
def artifacts(campaign, tmp_path):
    candidates, outcomes = campaign
    old = [legacy(o) for o in outcomes]
    return {
        "plain": (write_journal(str(tmp_path / "plain.jsonl"),
                                candidates, outcomes),
                  write_store(tmp_path / "plain.results", outcomes)),
        "legacy": (write_journal(str(tmp_path / "legacy.jsonl"),
                                 candidates, old),
                   write_legacy_store(tmp_path / "legacy.results", old,
                                      batched=[hasattr(o, "batched")
                                               for o in old])),
    }


class TestLegacyPickles:
    def test_pickle_carries_the_retired_attributes(self, campaign):
        _, outcomes = campaign
        result = next(o for o in outcomes if isinstance(o, CandidateResult))
        loaded = pickle.loads(pickle.dumps(legacy(result)))
        assert loaded.__dict__["batched"] is True
        assert loaded.perf[0].__dict__["batch_width"] == 4
        assert loaded == result


class TestLegacyJournal:
    def test_replay_is_identical(self, artifacts):
        plain = replay_journal(artifacts["plain"][0])
        old = replay_journal(artifacts["legacy"][0])
        assert old.n_quarantined == plain.n_quarantined == 0
        assert old.candidates == plain.candidates
        assert old.outcomes == plain.outcomes
        assert any(getattr(o, "batched", False)
                   for o in old.outcomes.values())

    def test_audit_is_identical(self, artifacts):
        plain = replay_journal(artifacts["plain"][0]).outcomes
        old = replay_journal(artifacts["legacy"][0]).outcomes
        assert audit_outcomes(old.values()) \
            == audit_outcomes(plain.values()) == {}

    def test_resume_restores_everything_and_ranks_identically(
            self, artifacts):
        plain = SweepRunner(parallel=False).resume(artifacts["plain"][0])
        old = SweepRunner(parallel=False).resume(artifacts["legacy"][0])
        assert old.durability.n_recomputed == 0
        assert old.durability.n_audit_failures == 0
        assert old.outcomes == plain.outcomes
        assert old.perf == plain.perf
        assert report_signature(old) == report_signature(plain)


class TestLegacyStore:
    def test_open_and_ranking_are_identical(self, artifacts):
        plain = ResultStore.open(artifacts["plain"][1])
        old = ResultStore.open(artifacts["legacy"][1])
        assert old.quarantined == ()
        assert os.path.exists(
            os.path.join(artifacts["legacy"][1], "shard-000000.blobs"))
        assert old.n_rows == plain.n_rows
        assert old.column("batched").any()
        assert old.column("blob_length").all()
        for name in ROW_DTYPE.names:
            if name not in _BLOB_COLUMNS + ("batched",):
                np.testing.assert_array_equal(old.column(name),
                                              plain.column(name))
        assert ranking_signature(old) == ranking_signature(plain)

    def test_compaction_deletes_every_blob_pool(self, campaign, tmp_path):
        _, outcomes = campaign
        old = [legacy(o) for o in outcomes]
        batched = [hasattr(o, "batched") for o in old]
        directory = tmp_path / "superseded.results"
        write_legacy_store(directory, old, batched)
        # A resumed campaign's corrections for the first two candidates.
        write_legacy_shard(str(directory), 1, old[:2], batched[:2])
        before = ranking_signature(ResultStore.open(str(directory)))
        compaction = compact_store(str(directory))
        assert compaction.rows_dropped == 2
        assert compaction.blob_pools_removed == 2
        assert not [name for name in os.listdir(directory)
                    if name.endswith(".blobs")]
        store = ResultStore.open(str(directory))
        assert ranking_signature(store) == before
        assert ranking_signature(store) == ranking_signature(
            ResultStore.open(write_store(tmp_path / "plain", outcomes)))
        # The rewritten shard no longer points into a deleted pool.
        rewritten = store.shards()[-1].rows
        for name in _BLOB_COLUMNS:
            assert not rewritten[name].any()

    def test_store_written_now_holds_rows_only(self, campaign, tmp_path):
        _, outcomes = campaign
        directory = write_store(tmp_path / "new.results", outcomes)
        assert sorted(os.listdir(directory)) == [".writer.lock",
                                                 "shard-000000.rows"]
        store = ResultStore.open(directory)
        for name in _BLOB_COLUMNS:
            assert not store.column(name).any()

    def test_new_rows_write_the_retired_column_false(self, artifacts,
                                                     tmp_path):
        directory = str(tmp_path / "resumed.results")
        SweepRunner(parallel=False, result_store=directory).resume(
            artifacts["legacy"][0])
        store = ResultStore.open(directory)
        assert store.n_rows == 5
        assert not store.column("batched").any()
