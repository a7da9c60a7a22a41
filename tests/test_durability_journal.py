"""Write-ahead journal: checksummed appends, verify-or-quarantine replay.

The property that matters is absolute: *no* byte-level damage to a
journal may crash the replay or smuggle a wrong record past it.  The
truncation sweep below enforces it literally — a valid journal cut at
every possible byte offset must replay cleanly, restoring exactly the
records whose lines survived intact and quarantining at most the torn
tail.
"""

import base64
import dataclasses
import hashlib
import json
import os
import pickle
import zlib

import pytest

from avipack.durability import (
    SCHEMA_VERSION,
    SweepJournal,
    replay_journal,
)
from avipack.durability._payload_dict import SCHEMA3_ZDICT
from avipack.durability.journal import _canonical, seal
from avipack.errors import DurabilityError, InputError, JournalError
from avipack.fingerprint import content_crc32
from avipack.resilience import FaultPlan, FaultSpec
from avipack.resilience import faults as faults_mod
from avipack.sweep import Candidate, CandidateFailure, CandidateResult, \
    SweepRunner
from tests.routes import POOL, report_signature


def make_candidates(n=3):
    return tuple(Candidate(power_per_module=10.0 + 5.0 * i)
                 for i in range(n))


def make_result(index, candidate, worst_board_c=60.0):
    return CandidateResult(
        index=index,
        candidate=candidate,
        fingerprint=candidate.fingerprint,
        compliant=True,
        violations=(),
        margins={"worst_board_c": worst_board_c},
        worst_board_c=worst_board_c,
        recommended_cooling="direct_air_flow",
        declared_cooling_feasible=True,
        cost_rank=10.0,
        elapsed_s=0.01,
        worker_pid=os.getpid(),
        cache_hits=0,
        cache_misses=1,
    )


def make_failure(index, candidate, error_type="ConvergenceError"):
    return CandidateFailure(
        index=index,
        candidate=candidate,
        fingerprint=candidate.fingerprint,
        stage="evaluate",
        error_type=error_type,
        message="injected",
        elapsed_s=0.01,
        worker_pid=os.getpid(),
    )


def reseal(line, **changes):
    """``line`` with its body fields changed and valid checksums."""
    body = json.loads(line)["body"]
    body.update(changes)
    return seal(body)


def primed(data):
    """``data`` deflated with the pinned preset dictionary."""
    deflater = zlib.compressobj(zdict=SCHEMA3_ZDICT)
    return deflater.compress(data) + deflater.flush()


def write_journal(path, candidates, outcomes):
    with SweepJournal.create(str(path), candidates) as journal:
        for index, candidate in enumerate(candidates):
            journal.record_dispatched(index, candidate)
        for outcome in outcomes:
            journal.record_outcome(outcome)


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path):
        candidates = make_candidates()
        outcomes = [make_result(i, c) for i, c in enumerate(candidates)]
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, outcomes)

        replay = replay_journal(str(path))
        assert replay.n_quarantined == 0
        assert replay.candidates == candidates
        assert set(replay.outcomes) == {c.fingerprint for c in candidates}
        for original in outcomes:
            restored = replay.outcomes[original.fingerprint]
            assert restored == original
        assert replay.n_records == 1 + 2 * len(candidates)
        assert replay.next_seq == replay.n_records
        assert not os.path.exists(f"{path}.quarantine")

    def test_outcome_kinds(self, tmp_path):
        candidates = make_candidates(3)
        outcomes = [
            make_result(0, candidates[0]),
            make_failure(1, candidates[1]),
            make_failure(2, candidates[2], error_type="WatchdogTimeout"),
        ]
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, outcomes)
        kinds = [json.loads(line)["body"]["kind"]
                 for line in path.read_bytes().splitlines()]
        assert kinds.count("completed") == 1
        assert kinds.count("failed") == 1
        assert kinds.count("timeout") == 1

    def test_records_carry_schema_and_checksums(self, tmp_path):
        candidates = make_candidates(1)
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, [make_result(0, candidates[0])])
        for line in path.read_bytes().splitlines(keepends=True):
            envelope = json.loads(line)
            body = envelope["body"]
            assert body["schema_version"] == SCHEMA_VERSION
            canonical = _canonical(body)
            # One compact line, written from the checksummed text.
            assert line == seal(body)
            assert line.startswith(
                b'{"body":' + canonical.encode() + b',"crc32":')
            assert envelope["crc32"] == content_crc32(canonical)
            # The full 32-byte SHA-256, as unpadded base64.
            assert len(envelope["sha256"]) == 43
            assert base64.b64decode(envelope["sha256"] + "=") \
                == hashlib.sha256(canonical.encode()).digest()

    def test_outcome_payload_leaves_the_fingerprint_to_the_envelope(
            self, tmp_path):
        candidates = make_candidates(1)
        outcome = make_result(0, candidates[0])
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, [outcome])
        body = json.loads(path.read_bytes().splitlines()[-1])["body"]
        assert body["fingerprint"] == outcome.fingerprint
        deflated = base64.b64decode(body["payload"])
        plain = zlib.decompressobj(zdict=SCHEMA3_ZDICT).decompress(deflated)
        assert outcome.fingerprint.encode() not in plain
        # Nor does it repeat the candidate the plan record holds.
        assert candidates[0].tim_name.encode() not in plain
        assert pickle.loads(plain) == dataclasses.replace(
            outcome, fingerprint="", candidate=None)
        # The envelope's copy and the plan's candidate are written back
        # on replay.
        assert replay_journal(str(path)).outcomes == {
            outcome.fingerprint: outcome}

    def test_schema3_dictionary_is_pinned(self):
        # Journals at schemas 3 to 6 were written with these bytes and
        # decode only with them: a different dictionary needs a new
        # schema_version.
        assert len(SCHEMA3_ZDICT) == 2691
        assert hashlib.sha256(SCHEMA3_ZDICT).hexdigest() == (
            "e5d0e574c7f22c84afb79b327df42dd6"
            "3393f1cf4e4115f9618edbed455ba288")

    def test_payloads_are_primed_with_the_dictionary(self, tmp_path):
        candidates = make_candidates(1)
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, [make_result(0, candidates[0])])
        for line in path.read_bytes().splitlines():
            body = json.loads(line)["body"]
            text = body.get("payload") or body.get("candidates")
            if text is None:
                continue
            data = base64.b64decode(text)
            # FDICT set, and the header names the dictionary's Adler-32.
            assert data[1] & 0x20
            assert data[2:6] == zlib.adler32(SCHEMA3_ZDICT).to_bytes(
                4, "big")

    def test_append_to_continues_sequence(self, tmp_path):
        candidates = make_candidates(2)
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, [make_result(0, candidates[0])])
        replay = replay_journal(str(path))
        with SweepJournal.append_to(str(path),
                                    next_seq=replay.next_seq) as journal:
            journal.record_outcome(make_result(1, candidates[1]))
        again = replay_journal(str(path))
        assert again.n_quarantined == 0
        assert len(again.outcomes) == 2
        assert again.next_seq == replay.next_seq + 1

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        candidates = make_candidates(2)
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, [make_result(0, candidates[0])])
        torn = path.read_bytes()[:-40]
        path.write_bytes(torn)
        replay = replay_journal(str(path), write_quarantine=False)
        with SweepJournal.append_to(str(path),
                                    next_seq=replay.next_seq) as journal:
            journal.record_outcome(make_result(1, candidates[1]))
        assert path.read_bytes().startswith(torn + b"\n")
        again = replay_journal(str(path), write_quarantine=False)
        assert candidates[1].fingerprint in again.outcomes
        assert again.n_quarantined == 1

    def test_append_to_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            SweepJournal.append_to(str(tmp_path / "absent.jsonl"))

    def test_replay_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            replay_journal(str(tmp_path / "absent.jsonl"))

    def test_closed_journal_rejects_appends(self, tmp_path):
        candidates = make_candidates(1)
        journal = SweepJournal.create(str(tmp_path / "j.jsonl"), candidates)
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(InputError):
            journal.record_dispatched(0, candidates[0])


class TestDamage:
    def _journal(self, tmp_path):
        candidates = make_candidates()
        outcomes = [make_result(i, c) for i, c in enumerate(candidates)]
        path = tmp_path / "sweep.jsonl"
        write_journal(path, candidates, outcomes)
        return path, candidates

    def test_bitflip_is_quarantined(self, tmp_path):
        path, candidates = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        damaged = bytearray(lines[-1])
        damaged[len(damaged) // 2] ^= 0x04
        lines[-1] = bytes(damaged)
        path.write_bytes(b"".join(lines))

        replay = replay_journal(str(path))
        assert replay.n_quarantined == 1
        assert "mismatch" in replay.quarantined[0].reason \
            or "unparseable" in replay.quarantined[0].reason
        assert len(replay.outcomes) == len(candidates) - 1
        sidecar = f"{path}.quarantine"
        assert os.path.exists(sidecar)
        entry = json.loads(open(sidecar).read().splitlines()[0])
        assert base64.b64decode(entry["raw"]) == lines[-1].rstrip(b"\n")

    def test_stale_schema_version_is_quarantined(self, tmp_path):
        # Valid checksums over a schema_version that is not an integer:
        # integrity alone must not be enough — the layout is untrusted.
        # An integer outside the window is refused instead (see
        # tests/test_legacy_artifacts.py).
        path, candidates = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        for version in ("5", 5.0, "6", 6.0, True, None, [6]):
            path.write_bytes(b"".join(
                lines[:-1] + [reseal(lines[-1], schema_version=version)]))
            replay = replay_journal(str(path), write_quarantine=False)
            assert replay.n_quarantined == 1, version
            assert "schema_version" in replay.quarantined[0].reason

    def test_unknown_kind_is_quarantined(self, tmp_path):
        path, _ = self._journal(tmp_path)
        body = {"schema_version": SCHEMA_VERSION, "seq": 99,
                "kind": "mystery"}
        with open(path, "ab") as stream:
            stream.write(seal(body))
        replay = replay_journal(str(path))
        assert replay.n_quarantined == 1
        assert "unknown record kind" in replay.quarantined[0].reason

    @pytest.mark.parametrize("schema, digest", [
        (SCHEMA_VERSION, lambda data: hashlib.sha256(data).hexdigest()),
    ], ids=["schema6-hex"])
    def test_sha256_in_the_other_schemas_form_is_quarantined(
            self, tmp_path, schema, digest):
        # A line carries its SHA-256 as unpadded base64; the 64 hex
        # digits schemas 1 to 3 wrote, of the same digest, are damage,
        # not an alternative.
        path, candidates = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        body = json.loads(lines[-1])["body"]
        outcome = replay_journal(str(path)).outcomes[body["fingerprint"]]
        body.update(schema_version=schema, payload=base64.b64encode(
            primed(pickle.dumps(outcome))).decode())
        lines[-1] = seal(body)
        path.write_bytes(b"".join(lines))
        assert replay_journal(str(path)).outcomes[
            body["fingerprint"]] == outcome
        envelope = json.loads(lines[-1])
        envelope["sha256"] = digest(_canonical(body).encode())
        lines[-1] = json.dumps(envelope).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        replay = replay_journal(str(path), write_quarantine=False)
        assert replay.n_quarantined == 1
        assert "sha256 mismatch" in replay.quarantined[0].reason
        assert len(replay.outcomes) == len(candidates) - 1

    def test_rewritten_envelope_fingerprint_is_flagged_and_recomputed(
            self, tmp_path):
        # The envelope holds the only copy of an outcome's fingerprint,
        # so pointing it at another candidate (checksums resealed) must
        # not pair the record with that candidate: the plan's candidate
        # at the record's index hashes otherwise, so replay quarantines
        # the line and the resume recomputes its candidate.
        candidates = [POOL[i] for i in (0, 4, 12)]
        path = str(tmp_path / "sweep.jsonl")
        clean = SweepRunner(parallel=False).run(candidates,
                                                journal_path=path)
        with open(path, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        other = candidates[0].fingerprint
        lines[-1] = reseal(lines[-1], fingerprint=other)
        with open(path, "wb") as stream:
            stream.write(b"".join(lines))
        replay = replay_journal(path, write_quarantine=False)
        (record,) = replay.quarantined
        assert "plan candidate 2" in record.reason
        # The other candidate keeps its own, untouched record.
        assert replay.outcomes[other] == clean.outcomes[0]
        assert candidates[-1].fingerprint not in replay.outcomes
        resumed = SweepRunner(parallel=False).resume(path)
        assert resumed.durability.n_quarantined == 1
        assert resumed.durability.n_audit_failures == 0
        assert resumed.durability.n_recomputed == 1
        assert report_signature(resumed) == report_signature(clean)

    def test_unpicklable_payload_is_quarantined(self, tmp_path):
        path, candidates = self._journal(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = reseal(lines[-1], payload=base64.b64encode(
            b"not a pickle").decode())
        path.write_bytes(b"".join(lines))
        replay = replay_journal(str(path))
        assert replay.n_quarantined == 1
        assert len(replay.outcomes) == len(candidates) - 1

    @pytest.mark.parametrize("damage, reason", [
        (lambda plain: b"not zlib data", ""),
        (lambda plain: primed(b"primed data that is not a pickle"), ""),
        (lambda plain: zlib.compress(plain), "preset-dictionary"),
        (lambda plain: primed(plain)[:-4], "truncated"),
        (lambda plain: primed(plain) + b"\x00", "past its stream end"),
    ], ids=["not-zlib", "not-a-pickle", "schema5-unprimed",
            "schema5-truncated", "schema5-trailing-bytes"])
    def test_damaged_compressed_payload_is_recomputed(self, tmp_path,
                                                      damage, reason):
        # A compressed outcome whose checksums hold but whose payload
        # does not decode: quarantined, never decoded, and the resume
        # computes it again.  The line is resealed at schema 5, the
        # oldest the window reads, whose outcome lines schema 6 writes
        # alike.  The unprimed, truncated and trailing-byte cases wrap
        # the outcome's own stripped pickle, which a lenient inflate
        # would hand back whole.
        candidates = [POOL[i] for i in (0, 4, 12)]
        path = str(tmp_path / "sweep.jsonl")
        clean = SweepRunner(parallel=False).run(candidates,
                                                journal_path=path)
        with open(path, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        body = json.loads(lines[-1])["body"]
        assert body["schema_version"] == SCHEMA_VERSION
        outcome = dataclasses.replace(
            replay_journal(path).outcomes[body["fingerprint"]],
            fingerprint="", candidate=None)
        plain = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        lines[-1] = reseal(lines[-1], schema_version=5,
                           payload=base64.b64encode(
                               damage(plain)).decode())
        with open(path, "wb") as stream:
            stream.write(b"".join(lines))
        replay = replay_journal(path, write_quarantine=False)
        assert replay.n_quarantined == 1
        assert reason in replay.quarantined[0].reason
        assert len(replay.outcomes) == len(candidates) - 1
        resumed = SweepRunner(parallel=False).resume(path)
        assert resumed.durability.n_quarantined == 1
        assert resumed.durability.n_recomputed == 1
        assert report_signature(resumed) == report_signature(clean)

    def test_quarantine_sidecar_optional(self, tmp_path):
        path, _ = self._journal(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        replay = replay_journal(str(path), write_quarantine=False)
        assert replay.n_quarantined == 1
        assert not os.path.exists(f"{path}.quarantine")


class TestTruncationSweep:
    """Cut a valid journal at EVERY byte offset; replay must cope."""

    def test_every_byte_offset(self, tmp_path):
        candidates = make_candidates(3)
        outcomes = [make_result(i, c) for i, c in enumerate(candidates)]
        path = tmp_path / "full.jsonl"
        write_journal(path, candidates, outcomes)
        data = path.read_bytes()
        originals = {o.fingerprint: o for o in outcomes}

        # Byte offset just past each record's newline.
        line_ends = [i + 1 for i, b in enumerate(data) if b == 0x0A]
        # A record survives a cut once its full content is present —
        # the trailing newline itself is not needed to verify it.
        complete_at = sorted({end - 1 for end in line_ends}
                             | set(line_ends))
        truncated = tmp_path / "cut.jsonl"
        for cut in range(len(data) + 1):
            truncated.write_bytes(data[:cut])
            replay = replay_journal(str(truncated),
                                    write_quarantine=False)
            # 1. Never an exception (reaching here proves it), and at
            #    most one damaged line — the torn tail.
            assert replay.n_quarantined <= 1, f"offset {cut}"
            # 2. Every record whose content survived is restored...
            intact_records = sum(1 for end in line_ends if end - 1 <= cut)
            assert replay.n_records == intact_records, f"offset {cut}"
            # 3. ...and restored outcomes equal the originals field
            #    for field (frozen dataclass equality: every metric,
            #    every margin, bit-for-bit floats).
            for fingerprint, restored in replay.outcomes.items():
                assert restored == originals[fingerprint], \
                    f"offset {cut}"
            # 4. A partial tail line is quarantined, not dropped.
            if cut != 0 and cut not in complete_at:
                assert replay.n_quarantined == 1, f"offset {cut}"
                assert replay.quarantined[0].reason.startswith(
                    "torn tail:"), f"offset {cut}"
            else:
                assert replay.n_quarantined == 0, f"offset {cut}"


class TestInjectedFaultSites:
    def test_torn_write_site(self, tmp_path):
        candidates = make_candidates(3)
        plan = FaultPlan(specs=(
            FaultSpec("durability.journal_torn_write", "cache_corrupt",
                      rate=1.0, scopes=(("journal", 4),)),), seed=7)
        faults_mod.install(plan)
        try:
            path = tmp_path / "sweep.jsonl"
            write_journal(path, candidates,
                          [make_result(i, c)
                           for i, c in enumerate(candidates)])
        finally:
            faults_mod.uninstall()
        replay = replay_journal(str(path), write_quarantine=False)
        # seq 4 is the first outcome record (plan + 3 dispatched come
        # first).  Its torn bytes carry no newline, so the *following*
        # record lands on the same damaged line: one quarantined line
        # swallows two records, and only the last outcome survives.
        assert replay.n_quarantined == 1
        assert len(replay.outcomes) == len(candidates) - 2

    def test_bitflip_site_corrupts_deterministic_subset(self, tmp_path):
        candidates = make_candidates(4)
        plan = FaultPlan(specs=(
            FaultSpec("durability.journal_bitflip", "cache_corrupt",
                      rate=0.5),), seed=11)
        outcomes = [make_result(i, c) for i, c in enumerate(candidates)]

        def run_once(path):
            faults_mod.install(plan)
            try:
                write_journal(path, candidates, outcomes)
            finally:
                faults_mod.uninstall()
            return replay_journal(str(path), write_quarantine=False)

        first = run_once(tmp_path / "a.jsonl")
        second = run_once(tmp_path / "b.jsonl")
        # Partial, deterministic damage: per-seq scoping means the same
        # seeded plan corrupts the same subset on every run.
        assert 0 < first.n_quarantined < 1 + 2 * len(candidates)
        assert first.n_quarantined == second.n_quarantined
        assert [q.line_number for q in first.quarantined] == \
            [q.line_number for q in second.quarantined]


class TestJournalLocking:
    """Advisory flock: one writer per journal, contention is loud."""

    def test_append_while_create_holds_lock_raises(self, tmp_path):
        path = str(tmp_path / "locked.jsonl")
        journal = SweepJournal.create(path, make_candidates())
        try:
            with pytest.raises(DurabilityError) as excinfo:
                SweepJournal.append_to(path)
            assert "locked by another writer" in str(excinfo.value)
        finally:
            journal.close()

    def test_create_over_held_journal_does_not_destroy_it(self, tmp_path):
        path = str(tmp_path / "held.jsonl")
        candidates = make_candidates()
        journal = SweepJournal.create(path, candidates)
        try:
            size_before = os.path.getsize(path)
            with pytest.raises(DurabilityError):
                SweepJournal.create(path, make_candidates(1))
            # The live journal's content survived the refused takeover.
            assert os.path.getsize(path) == size_before
        finally:
            journal.close()
        replay = replay_journal(path, write_quarantine=False)
        assert replay.candidates == candidates

    def test_lock_released_on_close(self, tmp_path):
        path = str(tmp_path / "released.jsonl")
        SweepJournal.create(path, make_candidates()).close()
        journal = SweepJournal.append_to(path)
        journal.close()

    def test_create_failure_releases_lock_and_descriptor(self, tmp_path):
        # A create that explodes after taking the lock (here: the plan
        # record cannot pickle a lambda) must close the stream on its
        # way out — otherwise the path stays flock'd and the fd leaks
        # until process exit, and every retry is refused as contention.
        path = str(tmp_path / "fail.jsonl")
        with pytest.raises(Exception):
            SweepJournal.create(path, (lambda: None,))
        journal = SweepJournal.create(path, make_candidates())
        journal.close()
        replay = replay_journal(path, write_quarantine=False)
        assert replay.candidates == make_candidates()

    def test_contention_error_is_a_durability_error(self, tmp_path):
        from avipack.errors import AvipackError

        path = str(tmp_path / "tax.jsonl")
        journal = SweepJournal.create(path, make_candidates())
        try:
            with pytest.raises(AvipackError):
                SweepJournal.append_to(path)
        finally:
            journal.close()
