"""Chaos battery for the job service: SIGKILL, restart, full recovery.

The headline drill: SIGKILL the server mid-campaign (no drain, no
flush — a power cut), restart it on the same journal directory, and
demand that every unfinished job is recovered and finishes with
rankings identical to an uninterrupted run.  A client streaming events
across the kill must survive via reconnect-and-replay: its stale
sequence cursor is answered with ``replay_gap`` by the new server
incarnation, it resets to the advertised buffer head, and still
observes the job through to its terminal event.
"""

import os
import subprocess
import sys
import time

from avipack.durability import replay_journal
from avipack.errors import ServiceError
from avipack.service import ServiceClient
from tests.routes import SERVICE_AXES as AXES
from tests.routes import served_ranking, service_signature

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def start_server(socket_path, journal_dir, throttle_s=0.15):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "avipack", "serve",
         "--socket", socket_path, "--journal-dir", journal_dir,
         "--serial", "--heartbeat-s", "0.1",
         "--throttle-s", str(throttle_s)],
        env=env, cwd=os.path.dirname(journal_dir),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    client = ServiceClient(socket_path, timeout_s=10.0, retries=2)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server died during startup: "
                f"{process.stderr.read().decode()}")
        try:
            client.ping()
            return process, client
        except ServiceError:
            time.sleep(0.1)
    process.kill()
    raise AssertionError("server did not become ready")


def wait_for_progress(client, job_id, at_least, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if status["done"] >= at_least:
            return status
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached "
                         f"{at_least} candidates")


class TestKillRecovery:
    def test_sigkill_mid_campaign_restart_recovers_to_parity(
            self, sockets, tmp_path):
        journal_dir = str(tmp_path / "jobs")
        os.makedirs(journal_dir)
        socket_path = os.path.join(sockets, "kill.sock")
        process, client = start_server(socket_path, journal_dir,
                                       throttle_s=0.15)
        queued_id = None
        try:
            job_id = client.submit(axes=AXES, seed=1)["job_id"]
            # A second, queued job must also survive the kill.
            queued_id = client.submit(axes=AXES, sample=6, seed=2,
                                      client="other")["job_id"]
            wait_for_progress(client, job_id, at_least=2)
            process.kill()  # SIGKILL: no handler, no flush, no drain
            process.wait(timeout=30.0)
        except BaseException:
            if process.poll() is None:
                process.kill()
            raise

        # The journal holds a clean prefix; at most the record being
        # appended at the instant of the kill may be torn.
        journal = os.path.join(journal_dir, f"{job_id}.journal.jsonl")
        partial = replay_journal(journal, write_quarantine=False)
        assert partial.n_quarantined <= 1
        assert 0 < len(partial.outcomes) < 12

        # Restart on the same journal dir: every unfinished job is
        # recovered and driven to completion without client action.
        socket2 = os.path.join(sockets, "kill2.sock")
        process2, client2 = start_server(socket2, journal_dir,
                                         throttle_s=0.0)
        try:
            final = client2.wait(job_id, timeout_s=120.0)
            assert final["state"] == "completed"
            assert final["restored"] >= len(partial.outcomes) - 1
            assert final["result"]["ranking"] \
                == served_ranking(service_signature())

            queued_final = client2.wait(queued_id, timeout_s=120.0)
            assert queued_final["state"] == "completed"
            assert queued_final["done"] == 6

            stats = client2.stats()["stats"]
            assert stats["recovered_jobs"] == 2
            client2.shutdown()
            assert process2.wait(timeout=60.0) == 0
        finally:
            if process2.poll() is None:
                process2.kill()

    def test_streaming_client_survives_kill_via_reconnect_and_replay(
            self, sockets, tmp_path):
        journal_dir = str(tmp_path / "jobs")
        os.makedirs(journal_dir)
        socket_path = os.path.join(sockets, "stream.sock")
        process, client = start_server(socket_path, journal_dir,
                                       throttle_s=0.15)
        process2 = None
        try:
            job_id = client.submit(axes=AXES)["job_id"]
            # Patient stream: wide reconnect budget to ride across the
            # kill -> restart window.
            stream_client = ServiceClient(socket_path, timeout_s=10.0,
                                          retries=3, retry_delay_s=0.5)
            events = []
            killed = False
            for event in stream_client.stream(job_id,
                                              max_reconnects=60):
                events.append(event)
                if not killed and event.get("event") == "progress" \
                        and event.get("done", 0) >= 2:
                    process.kill()
                    process.wait(timeout=30.0)
                    # Same socket path: the restarted server clears the
                    # stale socket and takes over.
                    process2, _ = start_server(socket_path, journal_dir,
                                               throttle_s=0.0)
                    killed = True
            assert killed, "stream finished before the kill landed"
            assert events[-1].get("terminal") is True
            assert events[-1]["event"] in ("completed", "closed")
            # The job really completed with full parity.
            final = ServiceClient(socket_path).status(job_id)
            assert final["state"] == "completed"
            assert final["result"]["ranking"] \
                == served_ranking(service_signature())
        finally:
            for proc in (process, process2):
                if proc is not None and proc.poll() is None:
                    proc.kill()
