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

Journals written before payload compression (``schema_version`` 1)
hold plain base64 pickles.  Replay, resume (which appends schema-2
records and so leaves a mixed journal), ingest and compaction must rank
them like a fresh run.
"""

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import zlib

import numpy as np
import pytest

from avipack.durability import audit_outcomes, replay_journal
from avipack.durability.journal import SweepJournal, _canonical, \
    outcome_kind
from avipack.fingerprint import content_crc32, content_digest, \
    stable_fingerprint
from avipack.results import ResultStore, ResultStoreWriter, \
    ingest_journal, ranking_signature
from avipack.results.schema import ROW_DTYPE, fill_row
from avipack.durability.files import atomic_write
from avipack.results.store import _header_line, publish_shard
from avipack.retention import checkpoint as checkpoint_mod
from avipack.retention import compact_journal, compact_store
from avipack.sweep import Candidate, CandidateResult, DesignSpace, \
    SweepRunner
from tests.routes import POOL, report_signature

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


def schema1_line(seq, kind, **fields):
    """One journal line as schema-1 writers checksummed it."""
    body = {"schema_version": 1, "seq": seq, "kind": kind, **fields}
    canonical = _canonical(body)
    return (json.dumps({"body": body, "crc32": content_crc32(canonical),
                        "sha256": content_digest(canonical)},
                       sort_keys=True) + "\n").encode()


def schema1_payload(value):
    """A schema-1 payload: the plain base64 pickle."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def schema1_outcome_line(seq, outcome):
    return schema1_line(seq, outcome_kind(outcome), index=outcome.index,
                        fingerprint=outcome.fingerprint,
                        payload=schema1_payload(outcome))


def write_schema1_journal(path, candidates, outcomes):
    """A plan plus one outcome line each, in the schema-1 encoding."""
    lines = [schema1_line(
        0, "plan", n_candidates=len(candidates),
        space_fingerprint=stable_fingerprint(tuple(candidates)),
        candidates=schema1_payload(tuple(candidates)))]
    lines += [schema1_outcome_line(seq, outcome)
              for seq, outcome in enumerate(outcomes, start=1)]
    with open(path, "wb") as stream:
        stream.write(b"".join(lines))
    return path


def journal_lines(path):
    with open(path, "rb") as stream:
        return [json.loads(line) for line in stream.read().splitlines()]


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


class TestSchema1Journal:
    """Plain-pickle journals replay, resume, ingest and compact."""

    @pytest.fixture()
    def journal(self, campaign, tmp_path):
        candidates, outcomes = campaign
        return write_schema1_journal(str(tmp_path / "schema1.jsonl"),
                                     candidates, outcomes)

    def test_replay_ranks_like_a_fresh_run(self, campaign, journal):
        _, outcomes = campaign
        replay = replay_journal(journal)
        assert replay.n_quarantined == 0
        assert replay.outcomes == {o.fingerprint: o for o in outcomes}
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)

    def test_resume_leaves_a_mixed_journal_that_ranks_alike(
            self, campaign, journal, tmp_path):
        _, outcomes = campaign
        # The crash took the last two outcome lines.
        with open(journal, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        with open(journal, "wb") as stream:
            stream.write(b"".join(lines[:-2]))
        store = str(tmp_path / "resumed.results")
        report = SweepRunner(parallel=False, result_store=store).resume(
            journal)
        assert report.durability.n_resumed == len(outcomes) - 2
        assert report.durability.n_recomputed == 2
        assert report_signature(report) == report_signature(outcomes)
        assert ranking_signature(ResultStore.open(store)) \
            == report_signature(outcomes)
        versions = [line["body"]["schema_version"]
                    for line in journal_lines(journal)]
        assert versions == [1] * (len(lines) - 2) + [2, 2]
        mixed = replay_journal(journal)
        assert mixed.n_quarantined == 0
        assert report_signature(mixed.outcomes.values()) \
            == report_signature(outcomes)

    def test_ingest_ranks_like_a_fresh_run(self, campaign, journal,
                                           tmp_path):
        _, outcomes = campaign
        store = str(tmp_path / "ingested.results")
        summary = ingest_journal(journal, store)
        assert summary.n_rows == len(outcomes)
        assert summary.n_quarantined_records == 0
        assert ranking_signature(ResultStore.open(store)) \
            == report_signature(outcomes)

    def test_compaction_writes_a_schema2_checkpoint(self, campaign,
                                                    journal):
        _, outcomes = campaign
        compaction = compact_journal(journal)
        assert compaction.n_folded == 1 + len(outcomes)
        assert compaction.bytes_reclaimed > 0
        (checkpoint,) = journal_lines(journal)
        assert checkpoint["body"]["kind"] == "checkpoint"
        assert checkpoint["body"]["schema_version"] == 2
        replay = replay_journal(journal)
        assert replay.outcomes == {o.fingerprint: o for o in outcomes}
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)

    def test_mixed_journal_compacts_and_ranks_like_a_fresh_run(
            self, campaign, journal, monkeypatch):
        _, outcomes = campaign
        # Schema-2 records supersede the schema-1 ones of every second
        # outcome, as a resume that recomputed them would append.
        superseded = outcomes[::2]
        next_seq = replay_journal(journal).next_seq
        with SweepJournal.append_to(journal, next_seq=next_seq) as writer:
            for outcome in superseded:
                writer.record_outcome(outcome)
        source = {line["body"]["fingerprint"]: line["body"]
                  for line in journal_lines(journal)
                  if "payload" in line["body"]}
        encode = checkpoint_mod._encode_payload
        encoded = []
        monkeypatch.setattr(checkpoint_mod, "_encode_payload",
                            lambda value: encoded.append(value)
                            or encode(value))
        compaction = compact_journal(journal)
        # Only the schema-1 plan and the outcomes still at schema 1.
        assert len(encoded) == 1 + len(outcomes) - len(superseded)
        assert compaction.n_folded == 1 + len(outcomes) + len(superseded)
        (checkpoint,) = journal_lines(journal)
        assert checkpoint["body"]["schema_version"] == 2
        for fingerprint, text in checkpoint["body"]["outcomes"].items():
            body = source[fingerprint]
            if body["schema_version"] == 2:
                assert text == body["payload"]
            else:  # re-encoded: zlib'd, never the plain schema-1 text
                assert text != body["payload"]
                zlib.decompress(base64.b64decode(text))
        assert {body["schema_version"] for body in source.values()} \
            == {1, 2}
        replay = replay_journal(journal)
        assert replay.n_quarantined == 0
        assert replay.outcomes == {o.fingerprint: o for o in outcomes}
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)


def test_schema2_outcome_payloads_are_at_most_60pct_of_schema1(tmp_path):
    """The compressed payloads of a journal's outcome lines are at most
    60% of the plain pickles a schema-1 journal held for them."""
    path = str(tmp_path / "pool.jsonl")
    SweepRunner(parallel=False).run(POOL, journal_path=path)
    compressed = [line["body"] for line in journal_lines(path)
                  if "payload" in line["body"]]
    assert len(compressed) == len(POOL)
    assert {body["schema_version"] for body in compressed} == {2}
    plain = replay_journal(path).outcomes
    schema1 = sum(len(schema1_payload(plain[body["fingerprint"]]))
                  for body in compressed)
    schema2 = sum(len(body["payload"]) for body in compressed)
    assert schema2 <= 0.6 * schema1
