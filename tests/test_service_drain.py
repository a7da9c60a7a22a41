"""Graceful-drain battery: SIGTERM against a real server process.

Satellite contract: SIGTERM during an active job stops admission,
interrupts the job at the next candidate boundary with its journal
flushed (no quarantined records), persists every manifest, and exits
0.  A restarted server resumes the interrupted job from the journal
and finishes with rankings identical to an uninterrupted run.
"""

import os
import signal
import time

from avipack.durability import replay_journal
from avipack.errors import ServiceError
from avipack.service import JobStore
from tests.routes import SERVICE_AXES as AXES
from tests.routes import served_ranking, service_signature
from tests.test_service_chaos import start_server, wait_for_progress


class TestGracefulDrain:
    def test_sigterm_journals_in_flight_work_and_exits_zero(
            self, sockets, tmp_path):
        journal_dir = str(tmp_path / "jobs")
        os.makedirs(journal_dir)
        socket_path = os.path.join(sockets, "drain.sock")
        process, client = start_server(socket_path, journal_dir)
        try:
            job_id = client.submit(axes=AXES)["job_id"]
            wait_for_progress(client, job_id, at_least=2)
            process.send_signal(signal.SIGTERM)
            rc = process.wait(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert rc == 0, process.stderr.read().decode()

        # In-flight work was journalled cleanly: a resumable prefix,
        # zero quarantined records.
        journal = os.path.join(journal_dir, f"{job_id}.journal.jsonl")
        replay = replay_journal(journal, write_quarantine=False)
        assert replay.n_quarantined == 0
        assert 0 < len(replay.outcomes) < 12

        # The manifest marks the job interrupted (resumable), and the
        # interruption reason is the drain.
        (job,) = [j for j in JobStore(journal_dir).load_all()
                  if j.job_id == job_id]
        assert job.state == "interrupted"

        # A restarted server resumes the job to full-ranking parity.
        socket2 = os.path.join(sockets, "drain2.sock")
        process2, client2 = start_server(socket2, journal_dir,
                                         throttle_s=0.0)
        try:
            final = client2.wait(job_id, timeout_s=120.0)
            assert final["state"] == "completed"
            assert final["restored"] == len(replay.outcomes)
            assert final["result"]["ranking"] \
                == served_ranking(service_signature())
            client2.shutdown()
            rc2 = process2.wait(timeout=60.0)
            assert rc2 == 0
        finally:
            if process2.poll() is None:
                process2.kill()

    def test_sigterm_with_idle_server_exits_zero_immediately(
            self, sockets, tmp_path):
        journal_dir = str(tmp_path / "jobs")
        os.makedirs(journal_dir)
        socket_path = os.path.join(sockets, "idle.sock")
        process, _client = start_server(socket_path, journal_dir)
        try:
            process.send_signal(signal.SIGTERM)
            rc = process.wait(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
        assert rc == 0
        assert not os.path.exists(socket_path)

    def test_sigterm_closes_admission(self, sockets, tmp_path):
        journal_dir = str(tmp_path / "jobs")
        os.makedirs(journal_dir)
        socket_path = os.path.join(sockets, "close.sock")
        process, client = start_server(socket_path, journal_dir)
        try:
            job_id = client.submit(axes=AXES)["job_id"]
            wait_for_progress(client, job_id, at_least=1)
            process.send_signal(signal.SIGTERM)
            # Between the signal and exit the server must refuse new
            # work; once it exits the socket is simply gone.  Distinct
            # client names and seeds keep quota/dedup out of the way.
            refused = None
            for attempt in range(200):
                try:
                    client.submit(axes=AXES, sample=6,
                                  seed=100 + attempt,
                                  client=f"probe{attempt}")
                except ServiceError as exc:
                    if exc.code in ("draining", "unreachable"):
                        refused = exc
                        break
                time.sleep(0.02)
            assert refused is not None
            assert process.wait(timeout=60.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
