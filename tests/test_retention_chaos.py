"""Chaos battery for retention: real SIGKILLs at every compaction phase.

A subprocess compacts a journal (then a result store) with a phase
hook that SIGKILLs itself at one phase boundary per run — no atexit,
no flush, the closest a test gets to a power cut mid-compaction.  The
parent then demands the artefact still answers identically (resume
ranking for journals, ``ranking_signature`` for stores) and that a
retried compaction converges.
"""

import os
import shutil
import signal
import subprocess
import sys
import textwrap

import pytest

from avipack.results import ResultStore
from avipack.retention import compact_journal, compact_store
from avipack.sweep import DesignSpace, SweepRunner
from tests.routes import report_signature, store_signature
from tests.test_retention_checkpoint import replay_state

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPACE = DesignSpace(axes={
    "power_per_module": (10.0, 20.0),
    "cooling": ("direct_air_flow", "air_flow_through"),
})

JOURNAL_PHASES = ("replay", "encode", "write", "fsync", "replace", "done")
STORE_PHASES = ("open", "plan", "publish", "delete", "done")

#: Compact the artefact at argv[1], SIGKILLing ourselves the moment
#: the phase named by argv[2] begins.  argv[3] picks the compactor.
KILL_SCRIPT = textwrap.dedent("""
    import os, signal, sys
    from avipack.retention import compact_journal, compact_store

    target = sys.argv[2]

    def hook(phase):
        if phase == target:
            os.kill(os.getpid(), signal.SIGKILL)

    compactor = {"journal": compact_journal,
                 "store": compact_store}[sys.argv[3]]
    compactor(sys.argv[1], phase_hook=hook)
""")


def kill_compaction(path, phase, kind):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    child = subprocess.run(
        [sys.executable, "-c", KILL_SCRIPT, path, phase, kind],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=120.0)
    assert child.returncode == -signal.SIGKILL, \
        f"phase {phase!r}: {child.stderr.decode()}"


class TestJournalKill:
    @pytest.fixture(scope="class")
    def referee(self, tmp_path_factory):
        """One real campaign: its journal is copied per kill phase."""
        root = tmp_path_factory.mktemp("referee")
        path = str(root / "sweep.jsonl")
        report = SweepRunner(parallel=False).run(SPACE, journal_path=path)
        return path, report_signature(report)

    @pytest.mark.parametrize("phase", JOURNAL_PHASES)
    def test_sigkill_at_phase_then_resume_ranks_identically(
            self, tmp_path, referee, phase):
        pristine, expected = referee
        journal = str(tmp_path / "killed.jsonl")
        shutil.copy(pristine, journal)
        before = replay_state(pristine)

        kill_compaction(journal, phase, "journal")

        # The kill landed on one side of the atomic swap: either way
        # the journal replays to the exact pre-compaction state.
        assert replay_state(journal) == before
        # A restarted process compacts to completion (stale tmp swept)
        # and the resume ranks identically to the uninterrupted run.
        compact_journal(journal)
        assert replay_state(journal) == before
        resumed = SweepRunner(parallel=False).resume(journal)
        assert resumed.durability.n_recomputed == 0
        assert report_signature(resumed) == expected
        debris = [name for name in os.listdir(tmp_path)
                  if ".tmp." in name]
        assert debris == []


class TestStoreKill:
    @pytest.fixture(scope="class")
    def referee(self, tmp_path_factory):
        """A store with superseded rows, copied per kill phase."""
        from tests.test_retention_store import build_superseded_store
        root = tmp_path_factory.mktemp("referee")
        directory = str(root / "store")
        build_superseded_store(directory)
        return directory, store_signature(directory)

    @pytest.mark.parametrize("phase", STORE_PHASES)
    def test_sigkill_at_phase_preserves_signature_then_converges(
            self, tmp_path, referee, phase):
        pristine, expected = referee
        directory = str(tmp_path / "killed")
        shutil.copytree(pristine, directory)

        kill_compaction(directory, phase, "store")

        # Duplicates or originals, the ranking contract holds...
        assert store_signature(directory) == expected
        # ...and a restarted compactor converges to the clean state.
        compact_store(directory)
        assert store_signature(directory) == expected
        assert bool(ResultStore.open(directory).live_mask().all())
        assert compact_store(directory).changed is False
