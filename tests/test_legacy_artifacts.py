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
and compaction deletes them.  Those shards are at store schema 1: the
434-byte row with the retired ``batched`` and ``blob_*`` columns, hex
fingerprints and fixed-width strings.  They open, query, rank and
render like a fresh store, alone or mixed with schema-2 shards, and
compaction rewrites them at schema 2.

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
from avipack.errors import InputError
from avipack.results import ResultStore, ResultStoreWriter, \
    STORE_SCHEMA_VERSION, axis_marginals, headroom_histogram, \
    ingest_journal, ranking_signature, render_store_report
from avipack.results.schema import AXIS_FIELDS, ROW_DTYPE, \
    SCHEMA1_DTYPE, SCHEMA1_DTYPE_FINGERPRINT, SHARD_DTYPE, fill_row
from avipack.durability.files import atomic_write
from avipack.retention import checkpoint as checkpoint_mod
from avipack.retention import compact_journal, compact_store
from avipack.sweep import Candidate, CandidateResult, DesignSpace, \
    SweepRunner
from tests.routes import POOL, report_signature

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})

#: Schema-1 row columns that schema 2 retired.
_RETIRED_COLUMNS = ("batched", "blob_offset", "blob_length", "blob_crc32")

#: Header magic of a ``.rows`` shard and of the retired ``.blobs`` pool.
_ROWS_MAGIC = "avipack-results-rows/1"
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


def schema1_header(magic, n_rows, payload):
    """A header line as schema-1 writers stamped it."""
    return json.dumps({
        "magic": magic, "schema": 1, "dtype": SCHEMA1_DTYPE_FINGERPRINT,
        "rows": n_rows, "nbytes": len(payload),
        "crc32": f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def write_legacy_shard(directory, number, outcomes, batched):
    """One shard pair as older writers laid it out: schema-1 rows that
    point into a checksummed ``.blobs`` pool of the pickled outcomes,
    ``batched`` forced."""
    logical = np.zeros(len(outcomes), dtype=ROW_DTYPE)
    rows = np.zeros(len(outcomes), dtype=SCHEMA1_DTYPE)
    blobs = bytearray()
    for position, outcome in enumerate(outcomes):
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        fill_row(logical, position, outcome)
        rows[position]["blob_offset"] = len(blobs)
        rows[position]["blob_length"] = len(blob)
        rows[position]["blob_crc32"] = zlib.crc32(blob) & 0xFFFFFFFF
        blobs += blob
    for name in ROW_DTYPE.names:
        rows[name] = logical[name]
    rows["batched"] = batched
    base = os.path.join(directory, f"shard-{number:06d}")
    atomic_write(base + ".blobs",
                 schema1_header(_BLOBS_MAGIC, len(rows), bytes(blobs)),
                 bytes(blobs))
    payload = rows.tobytes()
    atomic_write(base + ".rows",
                 schema1_header(_ROWS_MAGIC, len(rows), payload), payload)


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


def without_directory(report):
    """A rendered store report minus its store-directory line."""
    return [line for line in report.splitlines()
            if "Store directory" not in line]


def assert_same_store(store, expected):
    """``store`` answers every query exactly as ``expected`` does."""
    assert store.n_rows == expected.n_rows
    for name in ROW_DTYPE.names:
        np.testing.assert_array_equal(store.column(name),
                                      expected.column(name))
    np.testing.assert_array_equal(store.live_mask(), expected.live_mask())
    assert ranking_signature(store) == ranking_signature(expected)
    for field in AXIS_FIELDS:
        assert repr(axis_marginals(store, field)) \
            == repr(axis_marginals(expected, field))
    for got, want in zip(headroom_histogram(store),
                         headroom_histogram(expected)):
        np.testing.assert_array_equal(got, want)
    assert without_directory(render_store_report(store)) \
        == without_directory(render_store_report(expected))


class TestLegacyStore:
    def test_open_and_ranking_are_identical(self, artifacts):
        plain = ResultStore.open(artifacts["plain"][1])
        old = ResultStore.open(artifacts["legacy"][1])
        assert old.quarantined == ()
        assert os.path.exists(
            os.path.join(artifacts["legacy"][1], "shard-000000.blobs"))
        # The retired columns sit in the schema-1 shard's raw rows only.
        (shard,) = old.shards()
        assert shard.schema == 1
        assert shard.rows["batched"].any()
        assert shard.rows["blob_length"].all()
        for name in _RETIRED_COLUMNS:
            with pytest.raises(InputError):
                old.column(name)
        assert_same_store(old, plain)

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
        # The rewritten shards carry no retired column.
        assert [shard.rows.dtype for shard in store.shards()] \
            == [SHARD_DTYPE]

    def test_store_written_now_holds_rows_only(self, campaign, tmp_path):
        _, outcomes = campaign
        directory = write_store(tmp_path / "new.results", outcomes)
        assert sorted(os.listdir(directory)) == [".writer.lock",
                                                 "shard-000000.rows"]
        store = ResultStore.open(directory)
        assert [shard.rows.dtype for shard in store.shards()] \
            == [SHARD_DTYPE]

    def test_new_rows_carry_no_retired_column(self, artifacts, tmp_path):
        directory = str(tmp_path / "resumed.results")
        SweepRunner(parallel=False, result_store=directory).resume(
            artifacts["legacy"][0])
        store = ResultStore.open(directory)
        assert store.n_rows == 5
        assert [shard.schema for shard in store.shards()] \
            == [STORE_SCHEMA_VERSION]
        assert not set(_RETIRED_COLUMNS) & set(ROW_DTYPE.names)


class TestSchema1Store:
    """A store written at schema 1 reads like one written now."""

    @pytest.fixture()
    def old_store(self, campaign, tmp_path):
        _, outcomes = campaign
        return write_legacy_store(tmp_path / "schema1.results", outcomes,
                                  batched=[False] * len(outcomes))

    def test_mixed_with_schema2_shards_it_ranks_alike(self, campaign,
                                                      old_store, tmp_path):
        _, outcomes = campaign
        # Corrections of two candidates and one new row land in a
        # schema-2 shard; the schema-1 copies of the two are dead.
        extra = dataclasses.replace(outcomes[0], index=len(outcomes),
                                    fingerprint="0" * 40)
        with ResultStoreWriter(old_store) as writer:
            writer.add_many(outcomes[1:3] + [extra])
        mixed = ResultStore.open(old_store)
        assert [shard.schema for shard in mixed.shards()] == [1, 2]
        assert mixed.live_mask().tolist() \
            == [True, False, False] + [True] * (len(outcomes) - 3) \
            + [True] * 3
        fresh = tmp_path / "fresh.results"
        write_store(fresh, outcomes)
        with ResultStoreWriter(str(fresh)) as writer:
            writer.add_many(outcomes[1:3] + [extra])
        assert_same_store(mixed, ResultStore.open(str(fresh)))
        assert ranking_signature(mixed) == report_signature(
            list(outcomes) + [extra])

    def test_compaction_rewrites_it_at_schema2(self, campaign, old_store,
                                               tmp_path):
        _, outcomes = campaign
        before = ranking_signature(ResultStore.open(old_store))
        compaction = compact_store(old_store)
        # No dead rows, but the old layout is rewritten all the same.
        assert compaction.rows_dropped == 0
        assert compaction.shards_rewritten == 1
        assert compaction.bytes_after < compaction.bytes_before
        store = ResultStore.open(old_store)
        assert [shard.schema for shard in store.shards()] \
            == [STORE_SCHEMA_VERSION]
        assert ranking_signature(store) == before
        assert_same_store(store, ResultStore.open(
            write_store(tmp_path / "fresh.results", outcomes)))
        assert not compact_store(old_store).changed


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
