"""Journal compaction: one checkpoint record, byte-identical resume.

The contract under test is absolute: folding a journal into its
checkpoint must change *nothing* observable — replay state and the
sequence numbers future appends will carry — while the file shrinks to
one line (that a compacted journal resumes to the same ranking is the
route matrix's job).  The truncation sweep then holds the checkpoint
record to the same every-byte-offset standard as live journal lines,
and the phase-abort battery proves the swap is atomic at every seam.
"""

import json
import os
import shutil

import pytest

from avipack import perf
from avipack.durability import SweepJournal, replay_journal
from avipack.durability.journal import _canonical
from avipack.errors import DurabilityError, JournalError
from avipack.fingerprint import content_crc32, content_digest
from avipack.retention import compact_journal
from tests.test_durability_journal import (
    make_candidates,
    make_result,
    write_journal,
)


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

        lines = open(journalled, "rb").read().splitlines()
        assert len(lines) == 1
        envelope = json.loads(lines[0])
        body = envelope["body"]
        assert body["kind"] == "checkpoint"
        assert body["n_folded"] == before.n_records
        # The checkpoint line verifies under the live-append discipline.
        canonical = _canonical(body)
        assert envelope["crc32"] == content_crc32(canonical)
        assert envelope["sha256"] == content_digest(canonical)

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
