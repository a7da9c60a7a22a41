"""Journal -> store ingestion: status flags, quarantined records and
re-ingestion.  Ranking parity of ingestion against every other route is
checked by the route matrix (``test_route_matrix.py``)."""

import json
import os

from avipack.durability.journal import SweepJournal
from avipack.fingerprint import stable_fingerprint
from avipack.resilience.policy import RecoveryTrail
from avipack.results import ResultStore, ingest_journal, ranking_signature
from avipack.sweep.runner import CandidateFailure, CandidateResult
from avipack.sweep.space import Candidate
from tests.routes import journal_outcomes, report_signature


def build_outcome(index, spec):
    """One outcome from a ``spec`` dict."""
    candidate = Candidate(power_per_module=10.0 + index * 0.5,
                          n_modules=2 + index % 7)
    if spec["kind"] == "timeout":
        return CandidateFailure(
            index=index, candidate=candidate,
            fingerprint=candidate.fingerprint, stage="watchdog",
            error_type="WatchdogTimeout", message="hung",
            elapsed_s=1.0, worker_pid=0)
    if spec["kind"] == "failed":
        return CandidateFailure(
            index=index, candidate=candidate,
            fingerprint=candidate.fingerprint, stage="level3",
            error_type="ConvergenceError", message="diverged",
            elapsed_s=0.2, worker_pid=1)
    trails = ()
    if spec["recovered"]:
        trails = (RecoveryTrail(site="level3.solve", attempts=(),
                                recovered=True, degraded=False),)
    return CandidateResult(
        index=index, candidate=candidate,
        fingerprint=candidate.fingerprint,
        compliant=spec["compliant"], violations=(),
        margins={"fundamental_hz": 100.0, "fatigue_margin": 1.0,
                 "deflection_margin": 1.0, "mtbf_hours": 5.0e4},
        worst_board_c=float(spec["worst_decidegrees"]) / 10.0,
        recommended_cooling=candidate.cooling,
        declared_cooling_feasible=True,
        cost_rank=float(spec["cost_class"]),
        elapsed_s=0.01, worker_pid=1, cache_hits=0, cache_misses=1,
        degraded=spec["degraded"], recovery=trails)


def write_journal(path, outcomes):
    candidates = tuple(outcome.candidate for outcome in outcomes)
    journal = SweepJournal.create(
        path, candidates,
        space_fingerprint=stable_fingerprint(candidates))
    for outcome in outcomes:
        journal.record_dispatched(outcome.index, outcome.candidate)
        journal.record_outcome(outcome)
    journal.close()


def corrupt_outcome_records(path, victims):
    """Flip a byte in the ``victims``-th outcome records of a journal."""
    with open(path, "rb") as stream:
        lines = stream.readlines()
    outcome_positions = [
        position for position, line in enumerate(lines)
        if json.loads(line)["body"]["kind"] in
        ("completed", "failed", "timeout")]
    corrupted = 0
    for victim in victims:
        if victim >= len(outcome_positions):
            continue
        position = outcome_positions[victim]
        flipped = bytearray(lines[position])
        flipped[len(flipped) // 2] ^= 0x10
        lines[position] = bytes(flipped)
        corrupted += 1
    with open(path, "wb") as stream:
        stream.writelines(lines)
    return corrupted


def test_status_flags_survive_the_columnar_trip(tmp_path):
    journal_path = str(tmp_path / "sweep.journal.jsonl")
    store_dir = str(tmp_path / "store")
    specs = [
        {"kind": "completed", "compliant": True, "cost_class": 0,
         "worst_decidegrees": 700, "degraded": False, "recovered": True},
        {"kind": "completed", "compliant": True, "cost_class": 0,
         "worst_decidegrees": 700, "degraded": True, "recovered": False},
        {"kind": "failed", "compliant": False, "cost_class": 0,
         "worst_decidegrees": 700, "degraded": False, "recovered": False},
        {"kind": "timeout", "compliant": False, "cost_class": 0,
         "worst_decidegrees": 700, "degraded": False, "recovered": False},
    ]
    outcomes = [build_outcome(i, spec) for i, spec in enumerate(specs)]
    write_journal(journal_path, outcomes)
    ingest_journal(journal_path, store_dir)
    store = ResultStore.open(store_dir)
    assert store.column("recovered").tolist() == [True, False, False,
                                                  False]
    assert store.column("degraded").tolist() == [False, True, False,
                                                 False]
    assert store.column("kind").tolist() == [0, 0, 1, 2]
    assert (store.column("error_type")[3].decode("ascii")
            == "WatchdogTimeout")
    # Identical headroom + cost: index breaks the tie deterministically.
    assert ranking_signature(store) == report_signature(outcomes)


def test_every_record_quarantined_yields_empty_store(tmp_path):
    journal_path = str(tmp_path / "sweep.journal.jsonl")
    store_dir = str(tmp_path / "store")
    outcomes = [build_outcome(0, {"kind": "completed", "compliant": True,
                                  "cost_class": 0,
                                  "worst_decidegrees": 600,
                                  "degraded": False,
                                  "recovered": False})]
    write_journal(journal_path, outcomes)
    assert corrupt_outcome_records(journal_path, {0}) == 1
    summary = ingest_journal(journal_path, store_dir,
                             write_quarantine=False)
    assert summary.n_rows == 0
    assert summary.n_quarantined_records >= 1
    store = ResultStore.open(store_dir)
    assert store.n_rows == 0
    assert ranking_signature(store) == []
    assert os.path.isdir(store_dir)


def test_reingesting_same_journal_is_idempotent_via_live_mask(tmp_path):
    journal_path = str(tmp_path / "sweep.journal.jsonl")
    store_dir = str(tmp_path / "store")
    specs = [{"kind": "completed", "compliant": True, "cost_class": i % 2,
              "worst_decidegrees": 600 + 10 * i, "degraded": False,
              "recovered": False} for i in range(9)]
    outcomes = [build_outcome(i, spec) for i, spec in enumerate(specs)]
    write_journal(journal_path, outcomes)
    ingest_journal(journal_path, store_dir)
    ingest_journal(journal_path, store_dir)  # twice: rows duplicate...
    store = ResultStore.open(store_dir)
    assert store.n_rows == 18
    # ...but the live mask keeps one row per fingerprint, so the
    # ranking is unchanged.
    assert ranking_signature(store) \
        == report_signature(journal_outcomes(journal_path))
