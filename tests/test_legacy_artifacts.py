"""Journals and result stores written before the batch route was removed
still load.

Those artifacts pickled outcomes that carried a ``batched`` flag and
solver counters that carried ``batch_width``/``batched_solves``.  Both
are frozen dataclasses without slots, so unpickling puts the retired
names back into the instance ``__dict__`` as stray attributes, outside
every comparison.  Replay, the resume audit, the result store and the
ranking must come out identical to the same campaign without them.
"""

import dataclasses
import pickle
import zlib

import numpy as np
import pytest

from avipack.durability import audit_outcomes, replay_journal
from avipack.durability.journal import SweepJournal
from avipack.fingerprint import stable_fingerprint
from avipack.results import ResultStore, ranking_signature
from avipack.results.schema import ROW_DTYPE, fill_row
from avipack.results.store import publish_shard
from avipack.sweep import Candidate, CandidateResult, DesignSpace, \
    SweepRunner

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})

#: Row columns that locate the pickled outcome; a legacy blob is longer.
_BLOB_COLUMNS = ("blob_offset", "blob_length", "blob_crc32")


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


def write_store(directory, outcomes, batched):
    """One shard as the store writer lays it out, ``batched`` forced."""
    directory.mkdir()
    rows = np.zeros(len(outcomes), dtype=ROW_DTYPE)
    blobs = bytearray()
    for position, outcome in enumerate(outcomes):
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        fill_row(rows, position, outcome, blob_offset=len(blobs),
                 blob_length=len(blob),
                 blob_crc32=zlib.crc32(blob) & 0xFFFFFFFF)
        blobs += blob
    rows["batched"] = batched
    publish_shard(str(directory), 0, rows, bytes(blobs))
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
                  write_store(tmp_path / "plain.results", outcomes,
                              batched=False)),
        "legacy": (write_journal(str(tmp_path / "legacy.jsonl"),
                                 candidates, old),
                   write_store(tmp_path / "legacy.results", old,
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
        assert [o.fingerprint for o in old.ranked()] \
            == [o.fingerprint for o in plain.ranked()]


class TestLegacyStore:
    def test_open_and_ranking_are_identical(self, artifacts):
        plain = ResultStore.open(artifacts["plain"][1])
        old = ResultStore.open(artifacts["legacy"][1])
        assert old.n_rows == plain.n_rows
        assert old.column("batched").any()
        for name in ROW_DTYPE.names:
            if name not in _BLOB_COLUMNS + ("batched",):
                np.testing.assert_array_equal(old.column(name),
                                              plain.column(name))
        assert ranking_signature(old) == ranking_signature(plain)
        assert [old.fetch_outcome(i) for i in range(old.n_rows)] \
            == [plain.fetch_outcome(i) for i in range(plain.n_rows)]

    def test_new_rows_write_the_retired_column_false(self, artifacts,
                                                     tmp_path):
        directory = str(tmp_path / "resumed.results")
        SweepRunner(parallel=False, result_store=directory).resume(
            artifacts["legacy"][0])
        store = ResultStore.open(directory)
        assert store.n_rows == 5
        assert not store.column("batched").any()
