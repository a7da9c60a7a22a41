"""The schema window: older artifacts inside it still load, and those
outside it are refused by name.

A release reads the schema it writes and the one before it: journals
at ``schema_version`` 5 and 6, result stores at store schema 2 and 3.

Journals written before a checkpoint held its outcomes as one block
(``schema_version`` 5) lay their lines out as today, and their
checkpoints hold one payload text per outcome.  Replay, resume (which
appends current-schema records and so leaves a mixed journal), ingest
and compaction must rank them like a fresh run.  Stores written before
shard compression (store schema 2) hold the packed 148-byte rows,
uncompressed; they open, query, rank and render like a fresh store,
alone or mixed with newer shards, and compaction rewrites them at
schema 3.

Outcomes pickled before the batch route was removed carry a
``batched`` flag and solver counters that carry
``batch_width``/``batched_solves``, and avipack 1.0.0's compaction of
such an old journal carries them on into schema-6 checkpoints.  Both
are frozen dataclasses without slots, so unpickling puts the retired
names back into the instance ``__dict__`` as stray attributes, outside
every comparison: replay, the resume audit, the result store and the
ranking must come out identical to the same campaign without them.

An intact journal line at any other integer schema, older or newer,
and a schema-1 store shard make every reader raise, naming the file
and, for an older one, the avipack 1.0.0 command that upgrades it.
They leave the file exactly as it was: quarantining the line or shard
would drop valid work from every resume and compaction after it.
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

from avipack.__main__ import main
from avipack.durability import SCHEMA_VERSION, audit_outcomes, \
    replay_journal
from avipack.durability.journal import _PAYLOAD_DECODERS, SweepJournal, \
    _canonical, _decode_payload, _encode_outcome, _encode_outcome_block, \
    _encode_payload, _strip_outcome, outcome_kind, seal
from avipack.errors import JournalError, ResultStoreError
from avipack.fingerprint import content_crc32, content_digest, \
    stable_fingerprint
from avipack.results import ResultStore, ResultStoreWriter, \
    STORE_SCHEMA_VERSION, axis_marginals, headroom_histogram, \
    ingest_journal, ranking_signature, render_store_report
from avipack.results.schema import AXIS_FIELDS, DTYPE_FINGERPRINT, \
    ROW_DTYPE, SHARD_DTYPE, fill_row, pack_rows
from avipack.results.store import _LAYOUTS
from avipack.durability.files import atomic_write
from avipack.retention import compact_journal, compact_store
from avipack.sweep import Candidate, CandidateResult, DesignSpace, \
    SweepRunner
from tests.routes import POOL, _cheap, report_signature

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})

#: Schema-1 row columns that schema 2 retired.
_RETIRED_COLUMNS = ("batched", "blob_offset", "blob_length", "blob_crc32")

#: Header magic of a ``.rows`` shard.
_ROWS_MAGIC = "avipack-results-rows/1"

#: The dtype fingerprint of the 434-byte schema-1 row.
_SCHEMA1_DTYPE_FINGERPRINT = "af9b384d77a2509a39628bab8fc2305292216edc"


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


def sealed_at(schema, body):
    """``body`` as one line of a schema-``schema`` writer: from schema 4
    on the line written now, before it a spaced line whose SHA-256 is
    64 hex digits."""
    body = dict(body, schema_version=schema)
    if schema >= 4:
        return seal(body)
    canonical = _canonical(body)
    return (json.dumps({"body": body, "crc32": content_crc32(canonical),
                        "sha256": content_digest(canonical)},
                       sort_keys=True) + "\n").encode()


def write_schema5_journal(path, candidates, outcomes):
    """A plan plus one outcome line each, at schema 5."""
    lines = [seal({
        "schema_version": 5, "seq": 0, "kind": "plan",
        "n_candidates": len(candidates),
        "space_fingerprint": stable_fingerprint(tuple(candidates)),
        "candidates": _encode_payload(tuple(candidates))})]
    lines += [seal({"schema_version": 5, "seq": seq,
                    "kind": outcome_kind(outcome), "index": outcome.index,
                    "fingerprint": outcome.fingerprint,
                    "payload": _encode_outcome(outcome)})
              for seq, outcome in enumerate(outcomes, start=1)]
    with open(path, "wb") as stream:
        stream.write(b"".join(lines))
    return path


def write_schema5_checkpoint(path, candidates, outcomes):
    """A schema-5 compaction checkpoint: one payload text per outcome."""
    fingerprint = stable_fingerprint(tuple(candidates))
    line = seal({
        "schema_version": 5, "seq": len(outcomes), "kind": "checkpoint",
        "candidates": _encode_payload(tuple(candidates)),
        "space_fingerprint": fingerprint,
        "outcomes": {o.fingerprint: _encode_outcome(o)
                     for o in sorted(outcomes, key=lambda o: o.fingerprint)},
        "dispatched": {}, "n_folded": 1 + len(outcomes)})
    with open(path, "wb") as stream:
        stream.write(line)
    return path


def journal_lines(path):
    with open(path, "rb") as stream:
        return [json.loads(line) for line in stream.read().splitlines()]


def write_schema2_shard(directory, number, outcomes):
    """One shard as schema-2 writers laid it out: the packed records,
    uncompressed, checksummed after the header's string tables."""
    logical = np.zeros(len(outcomes), dtype=ROW_DTYPE)
    for position, outcome in enumerate(outcomes):
        fill_row(logical, position, outcome)
    records, tables = pack_rows(logical)
    payload = records.tobytes()
    checked = json.dumps(tables, sort_keys=True,
                         separators=(",", ":")).encode("ascii")
    header = json.dumps({
        "magic": _ROWS_MAGIC, "schema": 2, "dtype": DTYPE_FINGERPRINT,
        "rows": len(records), "nbytes": len(payload), "strings": tables,
        "crc32": f"{zlib.crc32(payload, zlib.crc32(checked)):08x}",
        "sha256": hashlib.sha256(checked + payload).hexdigest(),
    }, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    atomic_write(os.path.join(directory, f"shard-{number:06d}.rows"),
                 header, payload)


def write_schema1_shard(directory, number, n_rows,
                        dtype=_SCHEMA1_DTYPE_FINGERPRINT):
    """An intact shard whose header says schema 1 and carries ``dtype``:
    schema-1 writers stamped 434-byte rows with no string tables."""
    payload = bytes(434 * n_rows)
    header = json.dumps({
        "magic": _ROWS_MAGIC, "schema": 1, "dtype": dtype,
        "rows": n_rows, "nbytes": len(payload),
        "crc32": f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}",
        "sha256": hashlib.sha256(payload).hexdigest(),
    }, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"
    atomic_write(os.path.join(directory, f"shard-{number:06d}.rows"),
                 header, payload)


def write_store(directory, outcomes):
    """The same outcomes through today's writer."""
    with ResultStoreWriter(str(directory)) as writer:
        writer.add_many(outcomes)
    return str(directory)


def snapshot(directory):
    """Every entry of ``directory`` with its bytes (``None`` for a
    subdirectory)."""
    paths = {name: os.path.join(directory, name)
             for name in os.listdir(directory)}
    return {name: open(path, "rb").read() if os.path.isfile(path) else None
            for name, path in sorted(paths.items())}


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
    return {
        "plain": (write_journal(str(tmp_path / "plain.jsonl"),
                                candidates, outcomes),
                  write_store(tmp_path / "plain.results", outcomes)),
        "legacy": write_journal(str(tmp_path / "legacy.jsonl"),
                                candidates, [legacy(o) for o in outcomes]),
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
        old = replay_journal(artifacts["legacy"])
        assert old.n_quarantined == plain.n_quarantined == 0
        assert old.candidates == plain.candidates
        assert old.outcomes == plain.outcomes
        assert any(getattr(o, "batched", False)
                   for o in old.outcomes.values())

    def test_audit_is_identical(self, artifacts):
        plain = replay_journal(artifacts["plain"][0]).outcomes
        old = replay_journal(artifacts["legacy"]).outcomes
        assert audit_outcomes(old.values()) \
            == audit_outcomes(plain.values()) == {}

    def test_resume_restores_everything_and_ranks_identically(
            self, artifacts):
        plain = SweepRunner(parallel=False).resume(artifacts["plain"][0])
        old = SweepRunner(parallel=False).resume(artifacts["legacy"])
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
            artifacts["legacy"])
        store = ResultStore.open(directory)
        assert store.n_rows == 5
        assert [shard.schema for shard in store.shards()] \
            == [STORE_SCHEMA_VERSION]
        assert not set(_RETIRED_COLUMNS) & set(ROW_DTYPE.names)


class TestSchema2Store:
    """A store written at schema 2, before shard compression, reads like
    one written now."""

    @pytest.fixture()
    def old_store(self, campaign, tmp_path):
        _, outcomes = campaign
        directory = tmp_path / "schema2.results"
        directory.mkdir()
        write_schema2_shard(str(directory), 0, outcomes)
        return str(directory)

    def test_open_and_ranking_are_identical(self, campaign, old_store,
                                            tmp_path):
        _, outcomes = campaign
        old = ResultStore.open(old_store)
        assert old.quarantined == ()
        (shard,) = old.shards()
        assert shard.schema == 2
        assert isinstance(shard.rows, np.memmap)
        assert_same_store(old, ResultStore.open(
            write_store(tmp_path / "fresh.results", outcomes)))
        assert ranking_signature(old) == report_signature(outcomes)

    def test_it_feeds_live_fingerprints(self, artifacts, campaign,
                                        old_store):
        _, outcomes = campaign
        assert ResultStore.live_fingerprints(old_store) \
            == ResultStore.live_fingerprints(artifacts["plain"][1]) \
            == {o.fingerprint: o.index for o in outcomes}
        # A resume into it backfills nothing the store already holds.
        report = SweepRunner(parallel=False, result_store=old_store) \
            .resume(artifacts["plain"][0])
        assert report.durability.n_resumed == len(outcomes)
        assert report.result_store.rows_added == 0
        assert ResultStore.open(old_store).n_rows == len(outcomes)

    def test_mixed_with_schema3_shards_it_ranks_alike(self, campaign,
                                                      old_store, tmp_path):
        _, outcomes = campaign
        # Corrections of two candidates and one new row land in a
        # current-schema shard; the schema-2 copies of the two are dead.
        extra = dataclasses.replace(outcomes[0], index=len(outcomes),
                                    fingerprint="0" * 40)
        with ResultStoreWriter(old_store) as writer:
            writer.add_many(outcomes[1:3] + [extra])
        mixed = ResultStore.open(old_store)
        assert [shard.schema for shard in mixed.shards()] == [2, 3]
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

    def test_compaction_rewrites_it_at_schema3(self, campaign, old_store,
                                               tmp_path):
        _, outcomes = campaign
        before = ranking_signature(ResultStore.open(old_store))
        compaction = compact_store(old_store)
        assert compaction.rows_dropped == 0
        assert compaction.shards_rewritten == 1
        assert compaction.bytes_after < compaction.bytes_before
        store = ResultStore.open(old_store)
        assert [shard.schema for shard in store.shards()] \
            == [STORE_SCHEMA_VERSION] == [3]
        assert ranking_signature(store) == before
        assert_same_store(store, ResultStore.open(
            write_store(tmp_path / "fresh.results", outcomes)))
        assert not compact_store(old_store).changed


class TestSchema5Journal:
    """Journals written at schema 5 replay, resume, ingest and compact;
    so do their checkpoints, which hold one payload text per outcome."""

    @pytest.fixture()
    def journal(self, campaign, tmp_path):
        candidates, outcomes = campaign
        return write_schema5_journal(str(tmp_path / "schema5.jsonl"),
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
        assert versions == [5] * (len(lines) - 2) + [SCHEMA_VERSION] * 2
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
            self, campaign, journal):
        _, outcomes = campaign
        # Current-schema records supersede the schema-5 ones of every
        # second outcome, as a resume that recomputed them would append.
        superseded = outcomes[::2]
        next_seq = replay_journal(journal).next_seq
        with SweepJournal.append_to(journal, next_seq=next_seq) as writer:
            for outcome in superseded:
                writer.record_outcome(outcome)
        source = {line["body"]["fingerprint"]: line["body"]
                  for line in journal_lines(journal)
                  if "payload" in line["body"]}
        compaction = compact_journal(journal)
        assert compaction.n_folded == 1 + len(outcomes) + len(superseded)
        (checkpoint,) = journal_lines(journal)
        assert checkpoint["body"]["schema_version"] == SCHEMA_VERSION
        by_fingerprint = {o.fingerprint: o for o in outcomes}
        # Every outcome, whatever schema its line was at, sits in the
        # block stripped of what its key and the plan hold.
        assert {raw.hex(): outcome for raw, outcome
                in _decode_payload(checkpoint["body"]["outcomes"])} == {
            fingerprint: dataclasses.replace(outcome, fingerprint="",
                                             candidate=None)
            for fingerprint, outcome in by_fingerprint.items()}
        assert {body["schema_version"] for body in source.values()} \
            == {5, SCHEMA_VERSION}
        replay = replay_journal(journal)
        assert replay.n_quarantined == 0
        assert replay.outcomes == by_fingerprint
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)

    @pytest.fixture()
    def checkpoint(self, campaign, tmp_path):
        """A schema-5 checkpoint that folded all but the last two
        outcomes, as a crash before compaction leaves it."""
        candidates, outcomes = campaign
        return write_schema5_checkpoint(
            str(tmp_path / "checkpoint5.jsonl"), candidates, outcomes[:-2])

    def test_checkpoint_replays_like_a_fresh_run(self, campaign,
                                                 checkpoint):
        candidates, outcomes = campaign
        replay = replay_journal(checkpoint)
        assert replay.n_quarantined == 0
        assert replay.candidates == tuple(candidates)
        assert replay.outcomes == {o.fingerprint: o for o in outcomes[:-2]}
        assert replay.n_records == 1 + len(outcomes) - 2
        assert replay.next_seq == len(outcomes) - 1

    def test_checkpoint_resume_leaves_a_mixed_journal_that_ranks_alike(
            self, campaign, checkpoint, tmp_path):
        _, outcomes = campaign
        store = str(tmp_path / "resumed.results")
        report = SweepRunner(parallel=False, result_store=store).resume(
            checkpoint)
        assert report.durability.n_resumed == len(outcomes) - 2
        assert report.durability.n_recomputed == 2
        assert report_signature(report) == report_signature(outcomes)
        assert ranking_signature(ResultStore.open(store)) \
            == report_signature(outcomes)
        assert [line["body"]["schema_version"]
                for line in journal_lines(checkpoint)] \
            == [5] + [SCHEMA_VERSION] * 2
        mixed = replay_journal(checkpoint)
        assert mixed.n_quarantined == 0
        assert report_signature(mixed.outcomes.values()) \
            == report_signature(outcomes)

    def test_checkpoint_ingest_ranks_like_a_fresh_run(
            self, campaign, checkpoint, tmp_path):
        _, outcomes = campaign
        store = str(tmp_path / "ingested.results")
        summary = ingest_journal(checkpoint, store)
        assert summary.n_rows == len(outcomes) - 2
        assert summary.n_quarantined_records == 0
        assert ranking_signature(ResultStore.open(store)) \
            == report_signature(outcomes[:-2])

    def test_checkpoint_compacts_to_a_current_block(self, campaign,
                                                    checkpoint):
        _, outcomes = campaign
        report = SweepRunner(parallel=False).resume(checkpoint)
        compaction = compact_journal(checkpoint)
        assert compaction.n_folded == 1 + len(outcomes)
        (body,) = [line["body"] for line in journal_lines(checkpoint)]
        assert body["schema_version"] == SCHEMA_VERSION
        assert isinstance(body["outcomes"], str)
        replay = replay_journal(checkpoint)
        assert replay.n_quarantined == 0
        assert replay.outcomes == {o.fingerprint: o
                                   for o in report.outcomes}
        assert report_signature(replay.outcomes.values()) \
            == report_signature(outcomes)


def test_each_reader_keeps_exactly_two_schemas():
    assert sorted(_PAYLOAD_DECODERS) == [SCHEMA_VERSION - 1, SCHEMA_VERSION]
    assert sorted(_LAYOUTS) == [STORE_SCHEMA_VERSION - 1,
                                STORE_SCHEMA_VERSION]


#: Journal schemas outside the window: the four before it and the next.
OUTSIDE = (1, 2, 3, 4, SCHEMA_VERSION + 1)


def write_outside_journal(path, candidates, outcomes, schema, tail):
    """A journal written now whose lines are resealed at ``schema`` in
    that schema's line form: all of them, or with ``tail`` the plan and
    first outcome only, as a resume by an older release leaves them."""
    write_journal(path, candidates, outcomes)
    with open(path, "rb") as stream:
        lines = stream.read().splitlines(keepends=True)
    cut = 2 if tail else len(lines)
    lines[:cut] = [sealed_at(schema, json.loads(line)["body"])
                   for line in lines[:cut]]
    with open(path, "wb") as stream:
        stream.write(b"".join(lines))
    return path


def assert_refused(exc, path, schema):
    """``exc`` refuses ``path``'s first line, at ``schema``, by name."""
    message = str(exc)
    assert exc.reason == "schema"
    assert f"journal {path} line 1 is at schema {schema}" in message
    assert "schemas 5-6" in message
    upgrade = f"avipack 1.0.0, whose compaction rewrites it at schema 6: " \
        f"python -m avipack compact --journal {path}"
    assert (upgrade in message) == (schema < SCHEMA_VERSION)


class TestJournalRefusal:
    """An intact line outside the window is refused by every reader,
    which leaves the journal untouched."""

    @pytest.fixture(params=[False, True], ids=["alone", "schema6-tail"])
    def tail(self, request):
        return request.param

    @pytest.mark.parametrize("schema", OUTSIDE)
    def test_every_reader_refuses_and_leaves_the_file(
            self, campaign, tmp_path, schema, tail):
        candidates, outcomes = campaign
        path = write_outside_journal(str(tmp_path / "old.jsonl"),
                                     candidates, outcomes, schema, tail)
        before = snapshot(str(tmp_path))
        readers = {
            "replay": lambda: replay_journal(path),
            "resume": lambda: SweepRunner(parallel=False).resume(path),
            "ingest": lambda: ingest_journal(
                path, str(tmp_path / "ingested.results")),
            "compact": lambda: compact_journal(path),
        }
        for name, read in readers.items():
            with pytest.raises(JournalError) as refused:
                read()
            assert_refused(refused.value, path, schema)
            assert snapshot(str(tmp_path)) == before, name

    def test_a_damaged_old_line_is_quarantined_not_refused(
            self, campaign, tmp_path):
        # The refusal needs an intact CRC-32: an old line whose bytes
        # changed is damage, whatever schema it names.
        candidates, outcomes = campaign
        path = write_outside_journal(str(tmp_path / "old.jsonl"),
                                     candidates, outcomes, 4, tail=True)
        with open(path, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        lines[:2] = [line.replace(b'"seq":', b'"seq":1')
                     for line in lines[:2]]
        with open(path, "wb") as stream:
            stream.write(b"".join(lines))
        replay = replay_journal(path, write_quarantine=False)
        assert [record.reason for record in replay.quarantined[:2]] \
            == ["crc32 mismatch"] * 2


class TestStoreRefusal:
    """A schema-1 shard makes every store reader refuse the store."""

    @pytest.fixture()
    def old_store(self, campaign, tmp_path):
        _, outcomes = campaign
        directory = write_store(tmp_path / "old.results", outcomes[:2])
        # A damaged shard the refusal must not quarantine either.
        with ResultStoreWriter(directory) as writer:
            writer.add(outcomes[2])
        with open(os.path.join(directory, "shard-000001.rows"), "ab") \
                as stream:
            stream.write(b"torn")
        write_schema1_shard(directory, 2, 3)
        return directory

    def test_every_reader_refuses_and_renames_nothing(self, old_store):
        before = snapshot(old_store)
        upgrade = ("avipack 1.0.0, whose compaction rewrites it at schema "
                   f"3: python -m avipack compact --store {old_store}")
        for read in (ResultStore.open, ResultStore.live_fingerprints,
                     compact_store):
            with pytest.raises(ResultStoreError) as refused:
                read(old_store)
            assert refused.value.reason == "schema"
            assert "shard-000002.rows is at store schema 1" \
                in str(refused.value)
            assert "schemas 2-3" in str(refused.value)
            assert upgrade in str(refused.value)
            assert snapshot(old_store) == before

    def test_schema1_with_another_dtype_is_header_damage(self, old_store):
        os.unlink(os.path.join(old_store, "shard-000002.rows"))
        write_schema1_shard(old_store, 2, 3, dtype=DTYPE_FINGERPRINT)
        store = ResultStore.open(old_store)
        assert store.quarantine_reasons == {
            "shard-000001.rows": "truncation",
            "shard-000002.rows": "header"}
        assert store.n_rows == 2


class TestCliRefusal:
    """Each command exits with its own code and prints the upgrade."""

    @pytest.fixture()
    def old_journal(self, campaign, tmp_path):
        candidates, outcomes = campaign
        return write_outside_journal(str(tmp_path / "old.jsonl"),
                                     candidates, outcomes, 3, tail=True)

    def test_sweep_resume_exits_3_without_the_start_fresh_advice(
            self, old_journal, capsys):
        # Even beside a sidecar an earlier replay left.
        for _ in range(2):
            assert main(["sweep", "--resume", "--journal",
                         old_journal]) == 3
            err = capsys.readouterr().err
            assert f"python -m avipack compact --journal {old_journal}" \
                in err
            assert "without --resume" not in err
            with open(f"{old_journal}.quarantine", "w") as stream:
                stream.write("{}\n")

    def test_compact_exits_2(self, old_journal, campaign, tmp_path,
                             capsys):
        assert main(["compact", "--journal", old_journal]) == 2
        assert f"python -m avipack compact --journal {old_journal}" \
            in capsys.readouterr().err
        directory = write_store(tmp_path / "old.results", campaign[1])
        write_schema1_shard(directory, 1, 2)
        assert main(["compact", "--store", directory]) == 2
        assert f"python -m avipack compact --store {directory}" \
            in capsys.readouterr().err

    def test_results_exits_2(self, campaign, tmp_path, capsys):
        directory = write_store(tmp_path / "old.results", campaign[1])
        write_schema1_shard(directory, 1, 2)
        assert main(["results", "--store", directory]) == 2
        assert f"python -m avipack compact --store {directory}" \
            in capsys.readouterr().err


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


def test_primed_outcome_payloads_are_at_most_45pct_of_unprimed(
        pool_payloads):
    """The dictionary-primed payloads a journal holds are at most 45% of
    unprimed zlib streams of the same stripped outcomes (39% on
    POOL)."""
    unprimed = sum(len(base64.b64encode(zlib.compress(pickle.dumps(
        _strip_outcome(o), protocol=pickle.HIGHEST_PROTOCOL))))
        for o, _ in pool_payloads)
    primed = sum(len(text) for _, text in pool_payloads)
    assert primed <= 0.45 * unprimed


def test_stripped_outcome_payloads_are_at_most_90pct_of_embedding_ones(
        pool_payloads):
    """Payloads that leave the candidate to the plan record are at most
    90% of payloads that embed it, for the same outcomes (87% on POOL,
    whose two failures' tracebacks are a third of the bytes)."""
    embedding = sum(len(_encode_outcome(o, embed_candidate=True))
                    for o, _ in pool_payloads)
    stripped = sum(len(text) for _, text in pool_payloads)
    assert stripped <= 0.9 * embedding


def test_schema6_checkpoint_outcomes_are_at_most_50pct_of_schema5(
        tmp_path):
    """On a campaign of distinct candidates, a checkpoint's one block of
    outcomes is at most half the schema-5 field of one payload text per
    outcome (about 31% on these 24 points)."""
    candidates = [_cheap(power_per_module=power, tim_name=tim,
                         series_fraction=series, vibration_curve=curve)
                  for power in (6.0, 12.0)
                  for tim in ("standard_grease", "nanopack_cnt_array",
                              "nanopack_silver_flake_epoxy")
                  for series in (0.0, 0.5)
                  for curve in ("C1", "B")]
    assert len({c.fingerprint for c in candidates}) == 24
    path = str(tmp_path / "distinct.jsonl")
    SweepRunner(parallel=False).run(candidates, journal_path=path)
    replay = replay_journal(path)
    schema5 = {fingerprint: _encode_outcome(outcome)
               for fingerprint, outcome in sorted(replay.outcomes.items())}
    schema6 = _encode_outcome_block(replay.outcomes, replay.candidates)
    assert len(json.dumps(schema6)) \
        <= 0.5 * len(json.dumps(schema5, separators=(",", ":")))
