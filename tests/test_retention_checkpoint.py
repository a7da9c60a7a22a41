"""Journal compaction: one checkpoint record, byte-identical resume.

The contract under test is absolute: folding a journal into its
checkpoint must change *nothing* observable — replay state and the
sequence numbers future appends will carry — while the file shrinks to
one line (that a compacted journal resumes to the same ranking is the
route matrix's job).  The truncation sweep then holds the checkpoint
record to the same every-byte-offset standard as live journal lines,
and the phase-abort battery proves the swap is atomic at every seam.
"""

import dataclasses
import json
import os
import shutil

import pytest

from avipack import perf
from avipack.durability import SweepJournal, replay_journal
from avipack.durability.journal import _decode_payload, \
    _encode_payload, seal
from avipack.errors import DurabilityError, JournalError
from avipack.retention import compact_journal
from avipack.sweep import Candidate, DesignSpace, SweepRunner
from tests.test_durability_journal import (
    make_candidates,
    make_result,
    write_journal,
)

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 20.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})


def replay_state(path):
    """Everything resume semantics depend on, as one comparable tuple."""
    replay = replay_journal(str(path), write_quarantine=False)
    return (replay.candidates, replay.space_fingerprint,
            dict(replay.outcomes), dict(replay.dispatched),
            replay.next_seq)


@pytest.fixture()
def journalled(tmp_path):
    candidates = make_candidates(4)
    outcomes = [make_result(i, c) for i, c in enumerate(candidates)]
    path = str(tmp_path / "sweep.jsonl")
    write_journal(path, candidates, outcomes)
    return path


class TestFold:
    def test_folds_to_one_verified_checkpoint_line(self, journalled):
        before = replay_journal(journalled, write_quarantine=False)
        size_before = os.path.getsize(journalled)
        compaction = compact_journal(journalled)

        lines = open(journalled, "rb").read().splitlines(keepends=True)
        assert len(lines) == 1
        body = json.loads(lines[0])["body"]
        assert body["kind"] == "checkpoint"
        assert body["n_folded"] == before.n_records
        # The checkpoint line is sealed as every live append is.
        assert lines[0] == seal(body)

        assert compaction.n_folded == before.n_records
        assert compaction.n_quarantined == 0
        assert compaction.bytes_before == size_before
        assert compaction.bytes_after == os.path.getsize(journalled)
        assert compaction.bytes_reclaimed > 0

    def test_replay_state_is_identical(self, journalled):
        before = replay_state(journalled)
        compact_journal(journalled)
        assert replay_state(journalled) == before
        after = replay_journal(journalled, write_quarantine=False)
        # n_folded preserves the logical record count through the fold.
        assert after.n_records == replay_journal(
            journalled, write_quarantine=False).n_records

    def test_recompaction_is_a_stable_fixpoint(self, journalled):
        compact_journal(journalled)
        first = open(journalled, "rb").read()
        again = compact_journal(journalled)
        assert open(journalled, "rb").read() == first
        assert again.bytes_reclaimed == 0

    def test_checkpoint_holds_the_latest_outcomes(self, journalled):
        # A superseding record: the checkpoint must hold the latest one.
        candidates = make_candidates(4)
        next_seq = replay_journal(journalled,
                                  write_quarantine=False).next_seq
        with SweepJournal.append_to(journalled,
                                    next_seq=next_seq) as journal:
            journal.record_outcome(make_result(0, candidates[0],
                                               worst_board_c=71.0))
        source = [json.loads(line)["body"]
                  for line in open(journalled, "rb").read().splitlines()]
        latest = {body["fingerprint"]: _decode_payload(body["payload"])
                  for body in source if "payload" in body}
        compact_journal(journalled)
        (line,) = open(journalled, "rb").read().splitlines()
        body = json.loads(line)["body"]
        assert {raw.hex(): outcome for raw, outcome
                in _decode_payload(body["outcomes"])} == latest
        assert body["candidates"] == source[0]["candidates"]
        assert replay_journal(journalled).outcomes[
            candidates[0].fingerprint].worst_board_c == 71.0

    def test_checkpoint_outcomes_are_one_stripped_block(self, journalled):
        before = replay_journal(journalled, write_quarantine=False)
        compact_journal(journalled)
        (line,) = open(journalled, "rb").read().splitlines()
        entries = _decode_payload(json.loads(line)["body"]["outcomes"])
        assert type(entries) is tuple
        assert [raw.hex() for raw, _ in entries] \
            == sorted(before.outcomes)
        # Each entry leaves its fingerprint to the key and its
        # candidate to the plan, as an outcome line does.
        assert [outcome for _, outcome in entries] == [
            dataclasses.replace(before.outcomes[fp], fingerprint="",
                                candidate=None)
            for fp in sorted(before.outcomes)]

    def test_counters_track_compactions_and_bytes(self, journalled):
        perf.reset()
        compaction = compact_journal(journalled)
        assert perf.counter("retention.journal_compactions") == 1
        assert perf.counter("retention.bytes_reclaimed") \
            == compaction.bytes_reclaimed

    def test_damaged_line_is_dropped_from_the_fold(self, journalled):
        lines = open(journalled, "rb").read().splitlines(keepends=True)
        damaged = bytearray(lines[-1])
        damaged[len(damaged) // 2] ^= 0x04
        lines[-1] = bytes(damaged)
        with open(journalled, "wb") as stream:
            stream.write(b"".join(lines))
        before = replay_journal(journalled, write_quarantine=False)
        compaction = compact_journal(journalled)
        assert compaction.n_quarantined == 1
        after = replay_journal(journalled, write_quarantine=False)
        assert after.n_quarantined == 0  # the damage is gone, not kept
        assert dict(after.outcomes) == dict(before.outcomes)
        assert after.next_seq == before.next_seq


class TestOutcomeBlock:
    """A schema-6 checkpoint holds every outcome in one payload."""

    @pytest.fixture()
    def campaign(self, tmp_path):
        candidates = list(SPACE.grid()) + [Candidate(tim_name="no_such_tim")]
        path = str(tmp_path / "sweep.jsonl")
        report = SweepRunner(parallel=False, use_cache=False).run(
            candidates, journal_path=path)
        assert report.failures and report.results
        return path, candidates

    def test_compacting_a_compacted_journal_writes_the_same_bytes(
            self, campaign, tmp_path):
        path, _ = campaign
        compact_journal(path)
        again = str(tmp_path / "again.jsonl")
        shutil.copy(path, again)
        compact_journal(again)
        assert open(again, "rb").read() == open(path, "rb").read()

    def test_swapped_entry_fingerprint_quarantines_the_whole_record(
            self, campaign):
        path, _ = campaign
        compact_journal(path)
        (line,) = open(path, "rb").read().splitlines()
        body = json.loads(line)["body"]
        entries = list(_decode_payload(body["outcomes"]))
        # The second entry claims the first one's candidate: its plan
        # candidate hashes otherwise.
        entries[1] = (entries[0][0], entries[1][1])
        body["outcomes"] = _encode_payload(tuple(entries))
        with open(path, "wb") as stream:
            stream.write(seal(body))
        replay = replay_journal(path, write_quarantine=False)
        (record,) = replay.quarantined
        assert "plan candidate" in record.reason
        assert replay.outcomes == {}
        assert replay.candidates is None

    def test_orphan_keeps_its_candidate_in_the_block(self, campaign):
        path, candidates = campaign
        before = replay_state(path)
        # A later plan that holds only the first two candidates, as a
        # resume over a subset space writes: every other outcome is an
        # orphan of it.
        subset = tuple(candidates[:2])
        replay = replay_journal(path, write_quarantine=False)
        with SweepJournal.append_to(path,
                                    next_seq=replay.next_seq) as journal:
            journal.record_plan(subset)
        compact_journal(path)
        (line,) = open(path, "rb").read().splitlines()
        entries = _decode_payload(json.loads(line)["body"]["outcomes"])
        embedded = {raw.hex(): outcome.candidate
                    for raw, outcome in entries}
        orphans = {c.fingerprint for c in candidates[2:]}
        assert {fp for fp, candidate in embedded.items()
                if candidate is not None} == orphans
        for fingerprint in orphans:
            assert embedded[fingerprint].fingerprint == fingerprint
        after = replay_journal(path, write_quarantine=False)
        assert after.n_quarantined == 0
        assert after.candidates == subset
        assert after.outcomes == before[2]

    def test_checkpoint_and_live_tail_replay_like_the_uncompacted_journal(
            self, campaign, tmp_path):
        path, candidates = campaign
        folded = str(tmp_path / "folded.jsonl")
        shutil.copy(path, folded)
        compact_journal(folded)
        report = SweepRunner(parallel=False, use_cache=False).run(
            candidates[:2])
        for journal_path in (path, folded):
            next_seq = replay_journal(journal_path,
                                      write_quarantine=False).next_seq
            with SweepJournal.append_to(journal_path,
                                        next_seq=next_seq) as journal:
                journal.record_dispatched(2, candidates[2])
                for outcome in report.outcomes:
                    journal.record_outcome(outcome)
        assert open(folded, "rb").read().count(b"\n") == 4
        assert replay_state(folded) == replay_state(path)


class TestRefusals:
    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            compact_journal(str(tmp_path / "absent.jsonl"))

    def test_journal_without_intact_plan_is_refused_untouched(
            self, journalled):
        lines = open(journalled, "rb").read().splitlines(keepends=True)
        plan = bytearray(lines[0])
        plan[len(plan) // 2] ^= 0x01
        lines[0] = bytes(plan)
        with open(journalled, "wb") as stream:
            stream.write(b"".join(lines))
        data_before = open(journalled, "rb").read()
        with pytest.raises(JournalError):
            compact_journal(journalled)
        assert open(journalled, "rb").read() == data_before

    def test_live_writer_lock_is_respected(self, tmp_path):
        path = str(tmp_path / "held.jsonl")
        journal = SweepJournal.create(path, make_candidates())
        try:
            with pytest.raises(DurabilityError):
                compact_journal(path)
        finally:
            journal.close()
        compact_journal(path)  # released lock admits the compactor


class TestSequenceParity:
    def test_appends_after_compaction_carry_identical_seqs(
            self, tmp_path):
        candidates = make_candidates(3)
        outcomes = [make_result(i, c)
                    for i, c in enumerate(candidates[:-1])]
        plain = str(tmp_path / "plain.jsonl")
        write_journal(plain, candidates, outcomes)
        folded = str(tmp_path / "folded.jsonl")
        shutil.copy(plain, folded)
        compact_journal(folded)

        seqs = {}
        for path in (plain, folded):
            replay = replay_journal(path, write_quarantine=False)
            with SweepJournal.append_to(
                    path, next_seq=replay.next_seq) as journal:
                journal.record_outcome(
                    make_result(2, candidates[-1]))
            tail = open(path, "rb").read().splitlines()[-1]
            seqs[path] = json.loads(tail)["body"]["seq"]
        assert seqs[plain] == seqs[folded]
        # And both journals now replay to the same state.
        assert replay_state(plain) == replay_state(folded)


class TestPhaseAborts:
    """An exception at every phase seam must leave a valid journal."""

    @pytest.mark.parametrize("target", [
        "replay", "encode", "write", "fsync", "replace", "done"])
    def test_abort_at_phase_leaves_replayable_journal(
            self, tmp_path, journalled, target):
        before = replay_state(journalled)

        class Abort(Exception):
            pass

        def hook(phase):
            if phase == target:
                raise Abort(phase)

        with pytest.raises(Abort):
            compact_journal(journalled, phase_hook=hook)
        # Whatever side the atomic swap the abort landed on, the
        # journal replays to the same state...
        assert replay_state(journalled) == before
        # ...a retried compaction completes (sweeping any stale tmp)...
        compact_journal(journalled)
        assert replay_state(journalled) == before
        # ...and leaves no tmp debris behind.
        debris = [name for name in os.listdir(os.path.dirname(journalled))
                  if ".tmp." in name]
        assert debris == []


class TestCheckpointTruncationSweep:
    """Cut the checkpoint record at EVERY byte offset; replay must cope."""

    def test_every_byte_offset(self, tmp_path, journalled):
        before = replay_state(journalled)
        compact_journal(journalled)
        data = open(journalled, "rb").read()
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        # The record survives once its content is complete — with or
        # without the trailing newline.
        complete_at = {0, len(data) - 1, len(data)}

        truncated = tmp_path / "cut.jsonl"
        for cut in range(len(data) + 1):
            truncated.write_bytes(data[:cut])
            replay = replay_journal(str(truncated),
                                    write_quarantine=False)
            if cut in complete_at:
                assert replay.n_quarantined == 0, f"offset {cut}"
                if cut:
                    state = (replay.candidates, replay.space_fingerprint,
                             dict(replay.outcomes),
                             dict(replay.dispatched), replay.next_seq)
                    assert state == before, f"offset {cut}"
            else:
                # A torn checkpoint is quarantined, never trusted —
                # and never crashes the replay.
                assert replay.n_quarantined == 1, f"offset {cut}"
                assert replay.quarantined[0].reason.startswith(
                    "torn tail:"), f"offset {cut}"
                assert replay.candidates is None, f"offset {cut}"
