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
hold plain base64 pickles, and journals written before the preset
dictionary (``schema_version`` 2) hold unprimed zlib streams.  Replay,
resume (which appends current-schema records and so leaves a mixed
journal), ingest and compaction must rank both like a fresh run.
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

from avipack.durability import SCHEMA_VERSION, audit_outcomes, \
    replay_journal
from avipack.durability.journal import SweepJournal, _canonical, \
    _decode_payload, outcome_kind
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


def legacy_line(schema, seq, kind, **fields):
    """One journal line as schema-``schema`` writers checksummed it."""
    body = {"schema_version": schema, "seq": seq, "kind": kind, **fields}
    canonical = _canonical(body)
    return (json.dumps({"body": body, "crc32": content_crc32(canonical),
                        "sha256": content_digest(canonical)},
                       sort_keys=True) + "\n").encode()


def schema1_payload(value):
    """A schema-1 payload: the plain base64 pickle."""
    return base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def schema2_payload(value):
    """A schema-2 payload: the base64 of an unprimed zlib stream."""
    return base64.b64encode(zlib.compress(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))).decode()


#: Payload encoder of each retired schema.
LEGACY_PAYLOADS = {1: schema1_payload, 2: schema2_payload}


def write_legacy_journal(path, schema, candidates, outcomes):
    """A plan plus one outcome line each, in a retired encoding."""
    payload = LEGACY_PAYLOADS[schema]
    lines = [legacy_line(
        schema, 0, "plan", n_candidates=len(candidates),
        space_fingerprint=stable_fingerprint(tuple(candidates)),
        candidates=payload(tuple(candidates)))]
    lines += [legacy_line(schema, seq, outcome_kind(outcome),
                          index=outcome.index,
                          fingerprint=outcome.fingerprint,
                          payload=payload(outcome))
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


class _RetiredSchemaJournal:
    """A journal in a retired encoding replays, resumes, ingests and
    compacts; each subclass names the schema."""

    schema = 0

    @pytest.fixture()
    def journal(self, campaign, tmp_path):
        candidates, outcomes = campaign
        return write_legacy_journal(
            str(tmp_path / f"schema{self.schema}.jsonl"), self.schema,
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
        assert versions == ([self.schema] * (len(lines) - 2)
                            + [SCHEMA_VERSION] * 2)
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

    def test_compaction_writes_a_current_schema_checkpoint(
            self, campaign, journal):
        _, outcomes = campaign
        compaction = compact_journal(journal)
        assert compaction.n_folded == 1 + len(outcomes)
        assert compaction.bytes_reclaimed > 0
        (checkpoint,) = journal_lines(journal)
        assert checkpoint["body"]["kind"] == "checkpoint"
        assert checkpoint["body"]["schema_version"] == SCHEMA_VERSION
        replay = replay_journal(journal)
        assert replay.outcomes == {o.fingerprint: o for o in outcomes}
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)

    def test_mixed_journal_compacts_and_ranks_like_a_fresh_run(
            self, campaign, journal, monkeypatch):
        _, outcomes = campaign
        # Current-schema records supersede the retired ones of every
        # second outcome, as a resume that recomputed them would append.
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
        # Only the retired plan and the outcomes still at that schema.
        assert len(encoded) == 1 + len(outcomes) - len(superseded)
        assert compaction.n_folded == 1 + len(outcomes) + len(superseded)
        (checkpoint,) = journal_lines(journal)
        assert checkpoint["body"]["schema_version"] == SCHEMA_VERSION
        by_fingerprint = {o.fingerprint: o for o in outcomes}
        for fingerprint, text in checkpoint["body"]["outcomes"].items():
            body = source[fingerprint]
            if body["schema_version"] == SCHEMA_VERSION:
                assert text == body["payload"]
            else:  # encoded again at the current schema
                assert text != body["payload"]
                assert _decode_payload(text) == by_fingerprint[fingerprint]
        assert {body["schema_version"] for body in source.values()} \
            == {self.schema, SCHEMA_VERSION}
        replay = replay_journal(journal)
        assert replay.n_quarantined == 0
        assert replay.outcomes == by_fingerprint
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)


class TestSchema1Journal(_RetiredSchemaJournal):
    """Plain-pickle journals replay, resume, ingest and compact."""

    schema = 1


class TestSchema2Journal(_RetiredSchemaJournal):
    """Unprimed-zlib journals replay, resume, ingest and compact."""

    schema = 2


@pytest.fixture(scope="module")
def pool_payloads(tmp_path_factory):
    """Each POOL outcome and its payload text in a journal written now."""
    path = str(tmp_path_factory.mktemp("pool") / "pool.jsonl")
    SweepRunner(parallel=False).run(POOL, journal_path=path)
    bodies = [line["body"] for line in journal_lines(path)
              if "payload" in line["body"]]
    assert len(bodies) == len(POOL)
    assert {body["schema_version"] for body in bodies} == {SCHEMA_VERSION}
    outcomes = replay_journal(path).outcomes
    return [(outcomes[body["fingerprint"]], body["payload"])
            for body in bodies]


def test_schema2_outcome_payloads_are_at_most_60pct_of_schema1(
        pool_payloads):
    """Unprimed zlib payloads are at most 60% of the plain pickles a
    schema-1 journal held for the same outcomes."""
    schema1 = sum(len(schema1_payload(o)) for o, _ in pool_payloads)
    schema2 = sum(len(schema2_payload(o)) for o, _ in pool_payloads)
    assert schema2 <= 0.6 * schema1


def test_schema3_outcome_payloads_are_at_most_45pct_of_schema2(
        pool_payloads):
    """The dictionary-primed payloads a journal holds now are at most
    45% of the unprimed zlib payloads of schema 2."""
    schema2 = sum(len(schema2_payload(o)) for o, _ in pool_payloads)
    schema3 = sum(len(text) for _, text in pool_payloads)
    assert schema3 <= 0.45 * schema2
