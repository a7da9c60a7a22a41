"""Chaos battery for the durability layer: real kills, injected damage.

The headline test SIGKILLs a journalled sweep subprocess mid-campaign —
no atexit handler, no flush, the closest a test gets to a power cut —
then resumes from the surviving journal and demands ranking parity with
an uninterrupted run.  The in-process variants drive the journal's own
fault sites (torn write, bit flip) through
:class:`~avipack.resilience.faults.FaultPlan` for deterministic
corruption coverage.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from avipack.durability import replay_journal
from avipack.resilience import faults as faults_mod
from avipack.resilience.faults import FaultPlan, FaultSpec
from avipack.sweep import DesignSpace, SweepRunner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The space both the killed child and the in-process referee evaluate.
KILL_AXES = {
    "power_per_module": (8.0, 12.0, 16.0, 20.0, 24.0, 28.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
}

KILL_SPACE = DesignSpace(axes=KILL_AXES)

#: Journalled sweep the parent will SIGKILL.  The evaluator sleeps per
#: candidate so the kill lands mid-campaign deterministically; the
#: journal path arrives via argv.
CHILD_SCRIPT = textwrap.dedent("""
    import sys, time
    from avipack.sweep import DesignSpace, SweepRunner
    from avipack.sweep.runner import evaluate_candidate

    def slow(task):
        time.sleep(0.25)
        return evaluate_candidate(task)

    space = DesignSpace(axes={
        "power_per_module": (8.0, 12.0, 16.0, 20.0, 24.0, 28.0),
        "cooling": ("direct_air_flow", "air_flow_through"),
    })
    SweepRunner(parallel=False, evaluator=slow).run(
        space, journal_path=sys.argv[1])
""")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults_mod.uninstall()
    yield
    faults_mod.uninstall()


def ranking_signature(report):
    return [(o.fingerprint, o.cost_rank, o.worst_board_c)
            for o in report.ranked()]


class TestKillResume:
    def test_sigkill_mid_campaign_then_resume_ranks_identically(
            self, tmp_path):
        journal = str(tmp_path / "killed.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, journal],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120.0
            progressed = 0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                try:
                    replay = replay_journal(journal,
                                            write_quarantine=False)
                except Exception:
                    replay = None
                if replay is not None:
                    progressed = len(replay.outcomes)
                    if progressed >= 3:
                        break
                time.sleep(0.02)
        finally:
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait()

        assert progressed >= 3, \
            "child never journalled 3 outcomes before the deadline"
        # The kill landed mid-campaign: the journal cannot hold the
        # full space (0.25 s per remaining candidate was still owed).
        survivors = replay_journal(journal, write_quarantine=False)
        assert len(survivors.outcomes) < KILL_SPACE.size
        # SIGKILL can at worst tear the record being appended.
        assert survivors.n_quarantined <= 1

        fresh = SweepRunner(parallel=False).run(KILL_SPACE)
        resumed = SweepRunner(parallel=False).resume(journal)
        stats = resumed.durability
        assert stats.n_resumed >= 3
        assert stats.n_resumed + stats.n_recomputed == KILL_SPACE.size
        assert ranking_signature(resumed) == ranking_signature(fresh)

        # The resumed journal is complete: one more resume restores
        # everything without recomputing.
        again = SweepRunner(parallel=False).resume(journal)
        assert again.durability.n_recomputed == 0
        assert ranking_signature(again) == ranking_signature(fresh)


class TestInjectedJournalDamage:
    SPACE = DesignSpace(axes={
        "power_per_module": (10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
    })

    def test_targeted_bitflip_and_torn_write_survive_resume(
            self, tmp_path):
        # Serial layout: seq 0 plan, 1-6 outcomes.  Bit-flip outcome
        # seq 3; tear outcome seq 5 (which leaves no newline, so record
        # 6 concatenates onto the damaged line — two quarantined lines,
        # three lost outcomes).
        journal = str(tmp_path / "damaged.jsonl")
        plan = FaultPlan(specs=(
            FaultSpec("durability.journal_bitflip", "cache_corrupt",
                      scopes=(("journal", 3),)),
            FaultSpec("durability.journal_torn_write", "cache_corrupt",
                      scopes=(("journal", 5),)),
        ))
        fresh = SweepRunner(parallel=False, faults=plan).run(
            self.SPACE, journal_path=journal)
        assert fresh.n_candidates == 6

        resumed = SweepRunner(parallel=False).resume(journal)
        stats = resumed.durability
        assert stats.n_quarantined == 2
        assert stats.n_resumed == 3
        assert stats.n_recomputed == 3
        assert stats.n_audit_failures == 0
        assert ranking_signature(resumed) == ranking_signature(fresh)
        assert os.path.exists(journal + ".quarantine")

        # Convergence: the resume journalled its recomputes, so the
        # next resume trusts everything.
        again = SweepRunner(parallel=False).resume(journal)
        assert again.durability.n_recomputed == 0
        assert ranking_signature(again) == ranking_signature(fresh)

    def test_random_rate_damage_never_crashes_resume(self, tmp_path):
        # Seeded but untargeted: whatever the coin flips hit, resume
        # must quarantine, recompute, and rank at parity.
        journal = str(tmp_path / "noisy.jsonl")
        plan = FaultPlan(specs=(
            FaultSpec("durability.journal_bitflip", "cache_corrupt",
                      rate=0.4),
            FaultSpec("durability.journal_torn_write", "cache_corrupt",
                      rate=0.2),
        ), seed=5)
        fresh = SweepRunner(parallel=False, faults=plan).run(
            self.SPACE, journal_path=journal)
        reference = SweepRunner(parallel=False).run(self.SPACE)

        resumed = SweepRunner(parallel=False).resume(journal)
        stats = resumed.durability
        assert stats.n_resumed + stats.n_recomputed == 6
        assert ranking_signature(resumed) == ranking_signature(reference)
        assert ranking_signature(fresh) == ranking_signature(reference)
