"""In-process integration tests for the sweep job service.

A real :class:`~avipack.service.ThreadedService` (asyncio server on a
background thread, Unix socket, JSON lines) driven through the real
:class:`~avipack.service.ServiceClient`: submission parity against a
direct runner, dedup, structured admission rejections, cooperative
cancellation, event-stream contiguity and replay, deadline
enforcement, and drain-then-restart resume parity — everything short
of killing the process (the subprocess drills live in
``test_service_drain.py`` / ``test_service_chaos.py``).
"""

import errno
import gc
import json
import logging
import os
import signal
import threading
import time

import pytest

from avipack.errors import ServiceError
from avipack.service import (
    AdmissionPolicy,
    ServiceClient,
    ServiceConfig,
    ThreadedService,
)
from avipack.service.jobs import JobStore
from avipack.sweep import SweepRunner
from tests.routes import SERVICE_AXES as AXES
from tests.routes import served_ranking, service_signature


def make_config(sockets, tmp_path, name="a", **overrides):
    defaults = dict(
        socket_path=os.path.join(sockets, f"{name}.sock"),
        journal_dir=str(tmp_path / "jobs"),
        parallel=False,
        heartbeat_s=0.1,
        stall_timeout_s=60.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestThreadedService:
    def test_start_stop_leaves_signal_handlers_as_found(self, sockets,
                                                         tmp_path):
        # The loop runs off the main thread, which cannot own signal
        # handlers: SIGTERM/SIGINT must be exactly as they were.
        signals = (signal.SIGTERM, signal.SIGINT)
        before = [signal.getsignal(signum) for signum in signals]
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            assert ServiceClient(config.socket_path).ping()["ok"]
            assert [signal.getsignal(s) for s in signals] == before
        assert [signal.getsignal(s) for s in signals] == before


class TestSubmitAndComplete:
    def test_ranking_parity_with_direct_runner(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            accepted = client.submit(axes=AXES)
            assert accepted["state"] == "queued"
            assert accepted["n_candidates"] == 12
            final = client.wait(accepted["job_id"], timeout_s=120.0)
        assert final["state"] == "completed"
        assert final["done"] == 12
        assert final["result"]["n_compliant"] == 8
        assert final["result"]["ranking"] \
            == served_ranking(service_signature())

    def test_worker_crash_keeps_done_equal_to_total(
            self, sockets, tmp_path, monkeypatch):
        # A pool worker dies on one candidate mid-job: the runner
        # retries only the unfinished candidates, so progress counts
        # each candidate once and ``done`` never passes ``total``.
        import functools

        from avipack.resilience import FaultPlan, FaultSpec
        from avipack.service import server as server_mod

        plan = FaultPlan(
            specs=(FaultSpec("sweep.worker", "crash", scopes=(3,)),))
        monkeypatch.setattr(server_mod, "SweepRunner",
                            functools.partial(SweepRunner, faults=plan))
        config = make_config(sockets, tmp_path, parallel=True,
                             max_workers=2)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            final = client.wait(job_id, timeout_s=120.0)
        assert final["state"] == "completed"
        assert final["total"] == 12
        assert final["done"] == final["total"]
        assert final["result"]["n_failed"] == 1

    def test_repeated_candidates_fail_the_job(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(candidates=[{}, {}])["job_id"]
            final = client.wait(job_id, timeout_s=120.0)
        assert final["state"] == "failed"
        assert final["error"] == \
            "InputError: candidate #1 repeats candidate #0"

    def test_event_stream_is_contiguous_and_replayable(
            self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.02)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            events = list(client.stream(job_id))
            seqs = [event["seq"] for event in events]
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            assert events[-1]["event"] == "completed"
            kinds = {event["event"] for event in events}
            assert {"queued", "started", "progress",
                    "completed"} <= kinds
            # Replaying from the middle yields exactly the tail.
            replayed = list(client.stream(job_id, from_seq=seqs[5]))
            assert [e["seq"] for e in replayed] == seqs[5:]
            assert replayed == events[5:]

    def test_heartbeats_are_emitted(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.1,
                             heartbeat_s=0.05)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            events = list(client.stream(job_id))
        assert any(e["event"] == "heartbeat" for e in events)

    def test_duplicate_active_submission_dedups(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.1)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            first = client.submit(axes=AXES, client="alice")
            second = client.submit(axes=AXES, client="bob")
            assert second.get("deduplicated") is True
            assert second["job_id"] == first["job_id"]
            client.cancel(first["job_id"])

    def test_stats_and_perf_surface(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            client.wait(job_id, timeout_s=120.0)
            payload = client.stats()
            assert payload["stats"]["accepted"] == 1
            assert payload["stats"]["completed"] == 1
            assert payload["stats"]["evaluated_candidates"] == 12
            assert payload["perf"]["solves"] >= 1
            assert payload["perf"]["iterations"] >= 12


class TestAdmission:
    def test_saturated_queue_rejects_with_structured_reason(
            self, sockets, tmp_path):
        config = make_config(
            sockets, tmp_path, throttle_s=0.2,
            admission=AdmissionPolicy(max_queued=1,
                                      max_jobs_per_client=8))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            running = client.submit(axes=AXES, seed=1)["job_id"]
            queued = client.submit(axes=AXES, sample=6,
                                   seed=2)["job_id"]
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=AXES, sample=6, seed=3)
            assert excinfo.value.code == "queue_full"
            assert "bound" in str(excinfo.value)
            client.cancel(queued)
            client.cancel(running)

    def test_per_client_quota(self, sockets, tmp_path):
        config = make_config(
            sockets, tmp_path, throttle_s=0.2,
            admission=AdmissionPolicy(max_queued=8,
                                      max_jobs_per_client=1))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            mine = client.submit(axes=AXES, client="alice")["job_id"]
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=AXES, sample=6, client="alice")
            assert excinfo.value.code == "quota_exceeded"
            # Another tenant is unaffected.
            other = client.submit(axes=AXES, sample=6, seed=9,
                                  client="bob")["job_id"]
            client.cancel(other)
            client.cancel(mine)

    def test_oversized_job_rejected(self, sockets, tmp_path):
        config = make_config(
            sockets, tmp_path,
            admission=AdmissionPolicy(max_candidates_per_job=4))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=AXES)
            assert excinfo.value.code == "job_too_large"

    def test_invalid_space_rejected(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes={"warp_factor": [9]})
            assert excinfo.value.code == "invalid_space"

    def test_unknown_job_is_structured(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            with pytest.raises(ServiceError) as excinfo:
                client.status("j999999")
            assert excinfo.value.code == "unknown_job"


class TestCancellation:
    def test_cancel_queued_job_never_runs(self, sockets, tmp_path):
        config = make_config(
            sockets, tmp_path, throttle_s=0.2,
            admission=AdmissionPolicy(max_queued=4,
                                      max_jobs_per_client=8))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            running = client.submit(axes=AXES, seed=1)["job_id"]
            queued = client.submit(axes=AXES, sample=6,
                                   seed=2)["job_id"]
            cancelled = client.cancel(queued, reason="changed my mind")
            assert cancelled["state"] == "cancelled"
            final = client.status(queued)
            assert final["state"] == "cancelled"
            assert final["done"] == 0
            client.cancel(running)

    def test_cancel_running_job_stops_at_candidate_boundary(
            self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.15)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            events = []
            requested = False
            for event in client.stream(job_id):
                events.append(event)
                if not requested and event["event"] == "progress" \
                        and event["done"] >= 2:
                    client.cancel(job_id, reason="enough")
                    requested = True
            assert events[-1]["event"] == "cancelled"
            final = client.status(job_id)
            assert final["state"] == "cancelled"
            assert 2 <= final["done"] < 12
        # The journalled prefix survived the cancellation cleanly.
        from avipack.durability import replay_journal
        journal = os.path.join(str(tmp_path / "jobs"),
                               f"{job_id}.journal.jsonl")
        replay = replay_journal(journal, write_quarantine=False)
        assert replay.n_quarantined == 0
        assert len(replay.outcomes) == final["done"]

    def test_cancel_during_submit_save_keeps_queue_count(
            self, sockets, tmp_path, monkeypatch):
        # Hold the submit's manifest save until a cancel has landed: the
        # job is registered but was never pushed onto the ready queue,
        # so the cancel must not leave the queue counting it.
        saving, release = threading.Event(), threading.Event()
        original = JobStore.save_manifest

        def held_save(store, job_id, manifest):
            if job_id == "j000000" and not release.is_set():
                saving.set()
                release.wait(timeout=30.0)
            original(store, job_id, manifest)

        monkeypatch.setattr(JobStore, "save_manifest", held_save)
        config = make_config(sockets, tmp_path)
        replies = {}

        def call(name, op, *args, **kwargs):
            replies[name] = getattr(
                ServiceClient(config.socket_path), op)(*args, **kwargs)

        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            submit = threading.Thread(target=call, args=("submit", "submit"),
                                      kwargs={"axes": AXES, "sample": 2})
            submit.start()
            assert saving.wait(timeout=30.0)
            cancel = threading.Thread(target=call,
                                      args=("cancel", "cancel", "j000000"))
            cancel.start()
            deadline = time.monotonic() + 30.0
            while client.status("j000000")["state"] != "cancelled":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            release.set()
            submit.join(timeout=30.0)
            cancel.join(timeout=30.0)
            assert replies["submit"]["state"] == "cancelled"
            assert replies["cancel"]["state"] == "cancelled"
            assert client.stats()["queued"] == 0
            later = client.submit(axes=AXES, sample=2, seed=3)
            assert later["state"] == "queued"
            assert client.wait(later["job_id"],
                               timeout_s=120.0)["state"] == "completed"

    def test_cancel_terminal_job_refused(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES, sample=2)["job_id"]
            client.wait(job_id, timeout_s=120.0)
            with pytest.raises(ServiceError) as excinfo:
                client.cancel(job_id)
            assert excinfo.value.code == "not_cancellable"


class TestManifestSaves:
    def test_failed_terminal_save_frees_the_job_slot(
            self, sockets, tmp_path, monkeypatch):
        # The disk fills as the first job ends: its terminal manifest
        # write fails, yet the job queued behind it still runs and the
        # drain still finishes.
        original = JobStore.save_manifest

        def full_disk_at_end(store, job_id, manifest):
            if job_id == "j000000" and manifest["state"] == "completed":
                raise OSError(errno.ENOSPC, "No space left on device")
            original(store, job_id, manifest)

        monkeypatch.setattr(JobStore, "save_manifest", full_disk_at_end)
        config = make_config(sockets, tmp_path, throttle_s=0.05)
        service = ThreadedService(config)
        service.start()
        try:
            client = ServiceClient(config.socket_path)
            first = client.submit(axes=AXES, sample=2)["job_id"]
            second = client.submit(axes=AXES, sample=2, seed=1)["job_id"]
            assert client.wait(first, timeout_s=30.0)["state"] \
                == "completed"
            assert client.wait(second, timeout_s=30.0)["state"] \
                == "completed"
        finally:
            service.stop(timeout_s=10.0)
        assert not service._thread.is_alive()

    def test_failed_terminal_save_is_saved_again_on_a_heartbeat(
            self, sockets, tmp_path, monkeypatch, caplog):
        # The disk is full for the first "completed" save only: the
        # manifest on disk still reaches "completed" without a restart,
        # and nothing reaches asyncio's fallback logger.
        original = JobStore.save_manifest
        failed = []

        def full_disk_once(store, job_id, manifest):
            if manifest["state"] == "completed" and not failed:
                failed.append(job_id)
                raise OSError(errno.ENOSPC, "No space left on device")
            original(store, job_id, manifest)

        def on_disk_state(job_id):
            path = os.path.join(config.journal_dir,
                                f"{job_id}.manifest.json")
            with open(path, encoding="utf-8") as stream:
                return json.load(stream)["state"]

        monkeypatch.setattr(JobStore, "save_manifest", full_disk_once)
        config = make_config(sockets, tmp_path, heartbeat_s=0.05)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with ThreadedService(config):
                client = ServiceClient(config.socket_path)
                job_id = client.submit(axes=AXES, sample=2)["job_id"]
                assert client.wait(job_id, timeout_s=30.0)["state"] \
                    == "completed"
                deadline = time.monotonic() + 10.0
                while on_disk_state(job_id) != "completed" \
                        and time.monotonic() < deadline:
                    time.sleep(0.02)
                state = on_disk_state(job_id)
            gc.collect()  # a task's unretrieved exception logs when freed
        assert failed == [job_id]
        assert state == "completed"
        assert [record.getMessage() for record in caplog.records
                if record.name == "asyncio"] == []

    def test_terminal_event_follows_its_manifest(
            self, sockets, tmp_path, monkeypatch):
        # A slow terminal save: the client told "completed" must find
        # that state on disk already.
        original = JobStore.save_manifest

        def slow_terminal_save(store, job_id, manifest):
            if manifest["state"] == "completed":
                time.sleep(0.5)
            original(store, job_id, manifest)

        monkeypatch.setattr(JobStore, "save_manifest", slow_terminal_save)
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES, sample=2)["job_id"]
            for event in client.stream(job_id):
                if event.get("terminal"):
                    break
            manifest = os.path.join(config.journal_dir,
                                    f"{job_id}.manifest.json")
            with open(manifest, encoding="utf-8") as stream:
                on_disk = json.load(stream)
        assert event["event"] == "completed"
        assert on_disk["state"] == "completed"

    def test_failed_submit_save_leaves_no_orphan_job(
            self, sockets, tmp_path, monkeypatch):
        # The first submit's manifest write fails: the server answers
        # io_error, and the job must not stay registered, or the
        # client's retry dedups onto a job that was never queued and
        # never runs.
        original = JobStore.save_manifest
        failed = []

        def full_disk_once(store, job_id, manifest):
            if not failed:
                failed.append(job_id)
                raise OSError(errno.ENOSPC, "No space left on device")
            original(store, job_id, manifest)

        monkeypatch.setattr(JobStore, "save_manifest", full_disk_once)
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=AXES, sample=2)
            assert excinfo.value.code == "io_error"
            accepted = client.submit(axes=AXES, sample=2)
            assert not accepted.get("deduplicated")
            final = client.wait(accepted["job_id"], timeout_s=30.0)
            assert final["state"] == "completed"
            with pytest.raises(ServiceError) as excinfo:
                client.status(failed[0])
            assert excinfo.value.code == "unknown_job"


class TestDeadlines:
    def test_job_deadline_cancels_at_boundary(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.2,
                             heartbeat_s=0.05)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES, deadline_s=0.5)["job_id"]
            events = list(client.stream(job_id))
            assert events[-1]["event"] == "cancelled"
            assert "deadline" in events[-1]["reason"]
            final = client.status(job_id)
            assert final["state"] == "cancelled"
            assert 0 < final["done"] < 12


class TestReplayBounds:
    def test_evicted_buffer_resets_to_head(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, event_buffer=4)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            client.wait(job_id, timeout_s=120.0)
            status = client.status(job_id)
            base = status["next_seq"] - 4
            # from_seq=0 is long gone; the client transparently resets
            # to the advertised buffer head and still reaches terminal.
            events = list(client.stream(job_id, from_seq=0))
            assert events[0]["seq"] == base
            assert events[-1].get("terminal") is True


class TestDrainResume:
    def test_drain_interrupts_then_restart_resumes_to_parity(
            self, sockets, tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.15)
        first = ThreadedService(config)
        first.start()
        client = ServiceClient(config.socket_path)
        job_id = client.submit(axes=AXES)["job_id"]
        # Let a couple of candidates land in the journal, then drain.
        for event in client.stream(job_id):
            if event["event"] == "progress" and event["done"] >= 2:
                break
        first.stop(timeout_s=60.0)

        from avipack.durability import replay_journal
        journal = os.path.join(str(tmp_path / "jobs"),
                               f"{job_id}.journal.jsonl")
        partial = replay_journal(journal, write_quarantine=False)
        assert partial.n_quarantined == 0
        assert 0 < len(partial.outcomes) < 12

        # A new instance on the same journal dir resumes automatically.
        config2 = make_config(sockets, tmp_path, name="b")
        with ThreadedService(config2):
            client2 = ServiceClient(config2.socket_path)
            final = client2.wait(job_id, timeout_s=120.0)
            stats = client2.stats()["stats"]
        assert final["state"] == "completed"
        assert final["restored"] == len(partial.outcomes)
        assert final["result"]["ranking"] \
            == served_ranking(service_signature())
        assert stats["recovered_jobs"] == 1
        assert stats["restored_candidates"] == len(partial.outcomes)

    def test_draining_server_rejects_submissions(self, sockets,
                                                 tmp_path):
        config = make_config(sockets, tmp_path, throttle_s=0.2)
        service = ThreadedService(config)
        service.start()
        try:
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes=AXES)["job_id"]
            client.shutdown()
            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=AXES, sample=6, seed=5)
            # Either the drain refusal, or the socket already went away.
            assert excinfo.value.code in ("draining", "unreachable")
            assert job_id  # the in-flight job is journalled, not lost
        finally:
            service.stop(timeout_s=60.0)
