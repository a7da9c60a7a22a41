"""Crash-safe resume: replay, invariant audit, ranking parity.

Every test compares a resumed campaign against the uninterrupted run of
the same space: restored candidates must carry the *original* metric
values (bit-identical floats — they were computed once) and the merged
report must rank identically.
"""

import dataclasses
import errno
import json
import math
import os

import pytest

from avipack.durability import (
    audit_headroom_monotonicity,
    audit_outcomes,
    audit_result,
    energy_balance_residual_c,
    replay_journal,
)
from avipack.durability.journal import _decode_outcome, \
    _decode_payload, _encode_outcome, seal
from avipack.environments.arinc600 import STANDARD_INLET_TEMPERATURE
from avipack.errors import JournalError
from avipack.results import ingest_journal
from avipack.retention import compact_journal
from avipack.service.server import _ThrottledEvaluator
from avipack.sweep import Candidate, DesignSpace, SweepRunner
from avipack.units import kelvin_to_celsius
from tests.routes import POOL, outcome_rows, projections, \
    report_signature, store_rows, store_signature

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 20.0, 30.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})


@pytest.fixture()
def journalled(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    report = SweepRunner(parallel=False).run(SPACE, journal_path=path)
    return path, report


def damage_lines(path, predicate, mutate):
    """Rewrite journal lines whose decoded body matches ``predicate``."""
    with open(path, "rb") as stream:
        lines = stream.read().splitlines(keepends=True)
    out = []
    for line in lines:
        envelope = json.loads(line)
        if predicate(envelope["body"]):
            line = mutate(envelope)
        if line is not None:
            out.append(line)
    with open(path, "wb") as stream:
        stream.write(b"".join(out))


def reseal(envelope):
    """Recompute both checksums after a body edit (tampering helper)."""
    return seal(envelope["body"])


def decode(envelope):
    """The outcome an outcome record's body holds in a journal of
    ``SPACE``, its candidate taken from that plan."""
    return _decode_outcome(envelope["body"]["payload"],
                           envelope["body"]["fingerprint"],
                           plan=tuple(SPACE.grid()))


class TestResume:
    def test_complete_journal_restores_everything(self, journalled):
        path, fresh = journalled
        resumed = SweepRunner(parallel=False).resume(path)
        stats = resumed.durability
        assert stats.n_resumed == fresh.n_candidates
        assert stats.n_recomputed == 0
        assert stats.n_quarantined == 0
        assert stats.n_audit_failures == 0
        assert projections(resumed.outcomes) == projections(fresh.outcomes)
        assert report_signature(resumed) == report_signature(fresh)

    def test_resume_survives_reordered_space(self, journalled):
        path, fresh = journalled
        reordered = list(reversed(list(SPACE.grid())))
        resumed = SweepRunner(parallel=False).resume(path, space=reordered)
        assert resumed.durability.n_resumed == fresh.n_candidates
        # Indices follow the *new* ordering; fingerprints match by
        # content, so the ranked view is identical.
        assert [o.candidate for o in resumed.outcomes] == reordered
        assert [o.index for o in resumed.outcomes] == list(
            range(len(reordered)))
        assert report_signature(resumed) == report_signature(fresh)
        # The journal now carries the new indices too.
        assert {fp: o.index
                for fp, o in replay_journal(path).outcomes.items()} \
            == {o.fingerprint: o.index for o in resumed.outcomes}

    def test_resume_survives_extended_space(self, journalled):
        path, fresh = journalled
        extended = list(SPACE.grid()) + [
            Candidate(power_per_module=40.0, cooling="air_flow_through")]
        resumed = SweepRunner(parallel=False).resume(path, space=extended)
        assert resumed.durability.n_resumed == fresh.n_candidates
        assert resumed.durability.n_recomputed == 1
        assert resumed.n_candidates == fresh.n_candidates + 1

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError):
            SweepRunner(parallel=False).resume(
                str(tmp_path / "absent.jsonl"))

    def test_journal_without_plan_needs_explicit_space(self, journalled):
        path, fresh = journalled
        damage_lines(path, lambda body: body["kind"] == "plan",
                     lambda envelope: None)
        with pytest.raises(JournalError):
            SweepRunner(parallel=False).resume(path)
        resumed = SweepRunner(parallel=False).resume(path, space=SPACE)
        assert report_signature(resumed) == report_signature(fresh)


class TestDiskFull:
    """``ENOSPC`` at a journal append stops the campaign with the error;
    once space returns, the resume finishes it like a clean run."""

    @pytest.mark.parametrize("route", [
        dict(parallel=False), dict(parallel=True, max_workers=2)],
        ids=["serial", "pool"])
    def test_enospc_at_the_third_outcome_then_resume(self, route, tmp_path,
                                                     monkeypatch):
        candidates = list(POOL[:8])
        path = str(tmp_path / "sweep.jsonl")
        store = str(tmp_path / "store")
        fsync = os.fsync
        appends = []

        def full_disk_fsync(fd):
            if (os.path.exists(path)
                    and os.path.samestat(os.fstat(fd), os.stat(path))):
                appends.append(fd)
                # The plan record's fsync, then the third outcome's.
                if len(appends) == 4:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", full_disk_fsync)
        with pytest.raises(OSError) as raised:
            SweepRunner(result_store=store, **route).run(
                candidates, journal_path=path)
        assert raised.value.errno == errno.ENOSPC
        monkeypatch.setattr(os, "fsync", fsync)

        resumed = SweepRunner(result_store=store, **route).resume(path)
        assert resumed.durability.n_quarantined == 0
        assert resumed.durability.n_resumed == 3
        assert resumed.durability.n_recomputed == 5
        clean = report_signature(SweepRunner(parallel=False).run(candidates))
        assert report_signature(resumed) == clean
        assert store_signature(store) == clean


class TestTamperAudit:
    def test_tampered_metric_with_valid_checksums_is_recomputed(
            self, journalled):
        # Rewrite one completed record's board temperature and reseal
        # the checksums: integrity passes, physics does not.
        path, fresh = journalled

        def tamper(envelope):
            outcome = decode(envelope)
            outcome = dataclasses.replace(outcome, worst_board_c=-5.0)
            envelope["body"]["payload"] = _encode_outcome(outcome)
            return reseal(envelope)

        seen = []

        def first_completed(body):
            if body["kind"] == "completed" and not seen:
                seen.append(body["fingerprint"])
                return True
            return False

        damage_lines(path, first_completed, tamper)
        resumed = SweepRunner(parallel=False).resume(path)
        stats = resumed.durability
        assert stats.n_quarantined == 0
        assert stats.n_audit_failures == 1
        assert stats.n_recomputed == 1
        assert dict(stats.audit_issues)  # detail carried in the report
        assert report_signature(resumed) == report_signature(fresh)

    def test_swapped_candidate_fingerprint_is_caught(self, journalled):
        # Replay a record against a different design point: another
        # candidate embedded in the payload, journal fingerprint key
        # left alone, so only the audit can notice.
        path, fresh = journalled
        candidates = list(SPACE.grid())

        def tamper(envelope):
            outcome = decode(envelope)
            other = next(c for c in candidates
                         if c.fingerprint != outcome.fingerprint)
            outcome = dataclasses.replace(outcome, candidate=other)
            envelope["body"]["payload"] = _encode_outcome(
                outcome, embed_candidate=True)
            return reseal(envelope)

        seen = []

        def first_completed(body):
            if body["kind"] == "completed" and not seen:
                seen.append(body["fingerprint"])
                return True
            return False

        damage_lines(path, first_completed, tamper)
        resumed = SweepRunner(parallel=False).resume(path)
        assert resumed.durability.n_quarantined == 0
        assert resumed.durability.n_audit_failures >= 1
        assert "fingerprint mismatch" in " ".join(
            dict(resumed.durability.audit_issues)[seen[0]])
        assert report_signature(resumed) == report_signature(fresh)

    def test_wrapped_evaluator_still_gets_the_supply_floor_check(
            self, journalled):
        # A served job with --throttle-s resumes through a picklable
        # wrapper around evaluate_candidate.  Its records come from the
        # design procedure, so a board below the rack supply (margin
        # summary forged to match, so only the first-law floor can
        # notice) must be flagged and recomputed as on the default path.
        path, fresh = journalled
        supply_c = kelvin_to_celsius(STANDARD_INLET_TEMPERATURE)

        def tamper(envelope):
            outcome = decode(envelope)
            margins = dict(outcome.margins,
                           worst_board_c=supply_c - 10.0)
            outcome = dataclasses.replace(
                outcome, worst_board_c=supply_c - 10.0, margins=margins)
            envelope["body"]["payload"] = _encode_outcome(outcome)
            return reseal(envelope)

        seen = []

        def first_completed(body):
            if body["kind"] == "completed" and not seen:
                seen.append(body["fingerprint"])
                return True
            return False

        damage_lines(path, first_completed, tamper)
        resumed = SweepRunner(
            parallel=False, evaluator=_ThrottledEvaluator(0.0)).resume(path)
        stats = resumed.durability
        assert stats.n_audit_failures == 1
        assert stats.n_recomputed == 1
        (fingerprint, issues), = stats.audit_issues
        assert fingerprint == seen[0]
        assert any("rack supply" in issue for issue in issues)
        assert report_signature(resumed) == report_signature(fresh)


class TestPlanPairing:
    """An outcome line takes its candidate from the plan in force when
    it was written, or from its own payload when a checkpoint's plan
    lacks it."""

    def test_orphans_keep_their_candidates_through_compaction(
            self, journalled, tmp_path):
        path, fresh = journalled
        candidates = list(SPACE.grid())
        # The resume keeps two candidates, one at a new index.  The
        # other four are orphans of the new plan: one sits at an index
        # the new plan gives another candidate, three past its end.
        subset = [candidates[4], candidates[1]]
        resumed = SweepRunner(parallel=False).resume(path, space=subset)
        assert resumed.durability.n_recomputed == 0
        expected = {o.fingerprint: o for o in fresh.outcomes}
        moved = candidates[4].fingerprint
        expected[moved] = dataclasses.replace(expected[moved], index=0)
        uncompacted = replay_journal(path)
        assert uncompacted.n_quarantined == 0
        assert uncompacted.outcomes == expected
        before = str(tmp_path / "before.results")
        ingest_journal(path, before)

        compact_journal(path)
        with open(path, "rb") as stream:
            (line,) = stream.read().splitlines()
        entries = _decode_payload(json.loads(line)["body"]["outcomes"])
        orphans = {c.fingerprint for c in candidates} \
            - {c.fingerprint for c in subset}
        assert {raw.hex() for raw, outcome in entries
                if outcome.candidate is not None} == orphans
        replay = replay_journal(path)
        assert replay.n_quarantined == 0
        assert replay.candidates == tuple(subset)
        assert replay.outcomes == expected
        for fingerprint, outcome in replay.outcomes.items():
            assert outcome.candidate.fingerprint == fingerprint
        after = str(tmp_path / "after.results")
        ingest_journal(path, after)
        assert store_rows(after) == store_rows(before) \
            == outcome_rows(list(expected.values()))
        assert store_signature(after) == store_signature(before)

    def test_lines_after_a_damaged_plan_are_quarantined(self, tmp_path):
        candidates = list(SPACE.grid())
        path = str(tmp_path / "sweep.jsonl")
        clean = SweepRunner(parallel=False).run(candidates,
                                                journal_path=path)
        # A crash after three outcomes, then a resume over the reversed
        # space: a second plan and six outcome lines, each at an index
        # the first plan gives another candidate.
        with open(path, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        with open(path, "wb") as stream:
            stream.write(b"".join(lines[:4]))
        SweepRunner(parallel=False).resume(path, space=candidates[::-1])
        with open(path, "rb") as stream:
            lines = stream.read().splitlines(keepends=True)
        assert len(lines) == 11
        assert json.loads(lines[4])["body"]["kind"] == "plan"
        flipped = bytearray(lines[4])
        flipped[len(flipped) // 2] ^= 0x08
        lines[4] = bytes(flipped)
        with open(path, "wb") as stream:
            stream.write(b"".join(lines))

        replay = replay_journal(path, write_quarantine=False)
        assert [r.line_number for r in replay.quarantined] \
            == list(range(5, 12))
        assert all("plan candidate" in r.reason
                   for r in replay.quarantined[1:])
        assert replay.candidates == tuple(candidates)
        assert replay.outcomes == {o.fingerprint: o
                                   for o in clean.outcomes[:3]}
        store = str(tmp_path / "ingested.results")
        ingest_journal(path, store, write_quarantine=False)
        assert store_rows(store) == outcome_rows(clean.outcomes[:3])
        resumed = SweepRunner(parallel=False).resume(path)
        assert resumed.durability.n_quarantined == 7
        assert resumed.durability.n_recomputed == 3
        assert report_signature(resumed) == report_signature(clean)


class TestAuditBattery:
    @pytest.fixture(scope="class")
    def results(self):
        report = SweepRunner(parallel=False).run(SPACE)
        return [o for o in report.outcomes if hasattr(o, "margins")]

    def test_genuine_results_pass(self, results):
        for result in results:
            assert audit_result(result) == ()
        assert audit_outcomes(results) == {}

    def test_energy_balance_residual_zero_for_genuine(self, results):
        for result in results:
            assert energy_balance_residual_c(result) <= 0.05

    def test_first_law_violation_flagged(self, results):
        bad = dataclasses.replace(results[0], worst_board_c=-5.0)
        issues = audit_result(bad)
        assert any("first-law" in issue or "supply" in issue
                   for issue in issues)

    def test_non_finite_temperature_flagged(self, results):
        bad = dataclasses.replace(results[0],
                                  worst_board_c=float("nan"))
        assert any("finite" in issue for issue in audit_result(bad))

    def test_nan_margin_flagged(self, results):
        margins = dict(results[0].margins)
        margins["fatigue_margin"] = float("nan")
        bad = dataclasses.replace(results[0], margins=margins)
        assert any("NaN" in issue for issue in audit_result(bad))

    def test_margin_disagreement_flagged(self, results):
        margins = dict(results[0].margins)
        margins["worst_board_c"] = margins["worst_board_c"] + 3.0
        bad = dataclasses.replace(results[0], margins=margins)
        assert any("disagrees" in issue for issue in audit_result(bad))

    def test_compliant_above_limit_flagged(self, results):
        margins = dict(results[0].margins)
        margins["worst_board_c"] = 90.0
        bad = dataclasses.replace(results[0], worst_board_c=90.0,
                                  margins=margins, compliant=True)
        issues = audit_result(bad, recompute_level2=False)
        assert any("85" in issue for issue in issues)

    def test_energy_balance_catches_shifted_temperature(self, results):
        # Shift field and margin together so every cheaper consistency
        # check passes and only re-solving the rack can notice.  Start
        # from the coolest record so the shift stays under the 85 degC
        # compliance gate.
        coolest = min(results, key=lambda r: r.worst_board_c)
        margins = dict(coolest.margins)
        margins["worst_board_c"] = coolest.worst_board_c + 2.0
        bad = dataclasses.replace(coolest,
                                  worst_board_c=coolest.worst_board_c
                                  + 2.0, margins=margins)
        assert any("energy-balance" in issue for issue in
                   audit_result(bad))

    def test_headroom_monotonicity_flags_inverted_pair(self, results):
        by_power = sorted(
            (r for r in results
             if str(getattr(r.candidate.cooling, "value",
                            r.candidate.cooling)) == "direct_air_flow"),
            key=lambda r: r.candidate.power_per_module)
        assert len(by_power) >= 2
        # Genuine physics: monotone, nothing flagged.
        assert audit_headroom_monotonicity(by_power) == {}
        # Cool down the *hottest* budget below the coolest: impossible.
        lowest = by_power[0]
        highest = by_power[-1]
        forged = dataclasses.replace(
            highest, worst_board_c=lowest.worst_board_c - 10.0)
        flagged = audit_headroom_monotonicity(
            [r for r in by_power[:-1]] + [forged])
        assert forged.fingerprint in flagged
        assert any("monotonicity" in issue
                   for issues in flagged.values() for issue in issues)

    def test_failures_only_need_fingerprint_integrity(self, results):
        from tests.test_durability_journal import make_failure
        failure = make_failure(0, results[0].candidate)
        assert audit_outcomes([failure]) == {}
        forged = dataclasses.replace(
            failure, fingerprint="0" * len(failure.fingerprint))
        assert forged.fingerprint in audit_outcomes([forged])


class TestReplayOfRealJournal:
    def test_fresh_journal_holds_plan_and_outcomes_only(self, journalled):
        # The plan lists every candidate, so a fresh run writes no
        # per-candidate dispatched marker: N + 1 records, N + 1 fsyncs.
        path, fresh = journalled
        replay = replay_journal(str(path))
        assert replay.dispatched == {}
        assert len(replay.outcomes) == fresh.n_candidates
        assert replay.n_records == fresh.n_candidates + 1
        assert replay.space_fingerprint
        assert math.isfinite(replay.next_seq)
