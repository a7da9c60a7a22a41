"""Service-side retention: governor passes, eviction, disk_low admission.

A real :class:`~avipack.service.ThreadedService` exercised through the
real client: the ``retention`` op compacts finished jobs in place, the
policy clauses evict exactly their victims, a latched disk budget
refuses *new* submissions with the structured ``disk_low`` code while
every read path keeps serving, and both ``finished_wall`` and the
``compacted`` flag survive a restart.
"""

import json
import os
import time

import pytest

from avipack import perf
from avipack.errors import InputError, ServiceError
from avipack.retention import RetentionPolicy
from avipack.service import (
    ServiceClient,
    ServiceConfig,
    SweepService,
    ThreadedService,
)

#: One-candidate space variants: jobs finish in one solve.
def axes_for(power):
    return {"power_per_module": [power], "cooling": ["direct_air_flow"]}


def make_config(sockets, tmp_path, name="a", **overrides):
    defaults = dict(
        socket_path=os.path.join(sockets, f"{name}.sock"),
        journal_dir=str(tmp_path / "jobs"),
        parallel=False,
        heartbeat_s=0.1,
        stall_timeout_s=60.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_one_job(client, power=8.0):
    job_id = client.submit(axes=axes_for(power))["job_id"]
    final = client.wait(job_id, timeout_s=120.0)
    assert final["state"] == "completed"
    return job_id


def read_manifest(tmp_path, job_id, state="completed"):
    """The job's manifest once it reflects ``state``.

    The terminal event streams *before* the manifest rewrite lands, so
    a client returning from ``wait`` can observe the previous manifest
    for a moment; poll past that window.
    """
    path = tmp_path / "jobs" / f"{job_id}.manifest.json"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        manifest = json.loads(path.read_text())
        if manifest["state"] == state:
            return manifest
        time.sleep(0.01)
    raise AssertionError(f"manifest for {job_id} never reached {state}")


class TestRetentionOp:
    def test_compacts_finished_jobs_once(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            journal = tmp_path / "jobs" / f"{job_id}.journal.jsonl"
            assert len(journal.read_bytes().splitlines()) > 1

            summary = client.retention()
            assert summary["trigger"] == "request"
            assert job_id in summary["compacted"]
            assert summary["evicted"] == []
            assert summary["bytes_reclaimed"] > 0
            # The journal folded to its checkpoint; results/status
            # still serve from the compacted artefacts.
            assert len(journal.read_bytes().splitlines()) == 1
            assert client.status(job_id)["state"] == "completed"
            assert client.results(job_id, k=1)["top"]

            # Compaction is once per job: the next pass skips it.
            again = client.retention()
            assert again["compacted"] == []

            payload = client.stats()
            assert payload["stats"]["retention_passes"] >= 2
            assert payload["stats"]["compacted_jobs"] == 1
            assert payload["disk"]["disk_low"] is False
            assert payload["disk"]["usage_bytes"] is None  # no budget

    def test_active_jobs_are_never_touched(self, sockets, tmp_path):
        config = make_config(
            sockets, tmp_path, throttle_s=0.2,
            retention=RetentionPolicy(keep_last_n=0, max_age_s=0.0))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = client.submit(axes={
                "power_per_module": [8.0, 12.0, 16.0, 20.0],
                "cooling": ["direct_air_flow"]})["job_id"]
            summary = client.retention()
            assert job_id not in summary["compacted"]
            assert job_id not in summary["evicted"]
            client.cancel(job_id)


class TestEvictionPolicies:
    def test_keep_last_n_evicts_oldest_finished(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path,
                             retention=RetentionPolicy(keep_last_n=1))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            first = run_one_job(client, power=8.0)
            second = run_one_job(client, power=12.0)

            summary = client.retention()
            assert summary["evicted"] == [first]
            assert summary["bytes_reclaimed"] > 0
            # Every on-disk artefact of the victim is gone...
            leftovers = [name for name
                         in os.listdir(tmp_path / "jobs")
                         if name.startswith(first + ".")]
            assert leftovers == []
            # ...the survivor still serves...
            assert client.status(second)["state"] == "completed"
            assert client.results(second, k=1)["top"]
            # ...and the victim is unknown, structurally.
            with pytest.raises(ServiceError) as excinfo:
                client.status(first)
            assert excinfo.value.code == "unknown_job"
            assert client.stats()["stats"]["evicted_jobs"] == 1

    def test_max_age_evicts_expired_finished_jobs(self, sockets,
                                                  tmp_path):
        config = make_config(
            sockets, tmp_path,
            retention=RetentionPolicy(max_age_s=0.05))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            time.sleep(0.1)
            assert client.retention()["evicted"] == [job_id]

    def test_max_bytes_evicts_oldest_beyond_budget(self, sockets,
                                                   tmp_path):
        config = make_config(sockets, tmp_path,
                             retention=RetentionPolicy(max_bytes=0))
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            assert client.retention()["evicted"] == [job_id]

    def test_unbounded_policy_never_evicts(self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)  # default policy
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            assert client.retention()["evicted"] == []
            assert client.status(job_id)["state"] == "completed"


class TestDiskBudget:
    def test_disk_low_refuses_submissions_while_queries_serve(
            self, sockets, tmp_path):
        # A 1-byte high watermark the first journal write exceeds
        # forever: retention can never reclaim below it, so the latch
        # must hold and only *admission* may degrade.
        config = make_config(sockets, tmp_path,
                             disk_high_watermark_bytes=1,
                             disk_low_watermark_bytes=0,
                             disk_poll_s=0.05)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client, power=8.0)

            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                disk = client.stats()["disk"]
                if disk["disk_low"]:
                    break
                time.sleep(0.02)
            assert disk["disk_low"] is True
            assert disk["usage_bytes"] >= 1
            assert disk["high_watermark_bytes"] == 1

            with pytest.raises(ServiceError) as excinfo:
                client.submit(axes=axes_for(12.0))
            assert excinfo.value.code == "disk_low"
            assert perf.counter("retention.disk_low_refusals") >= 1

            # Degraded means degraded — not down: every read path and
            # the refusal itself keep answering.
            assert client.ping()["pong"] is True
            assert client.status(job_id)["state"] == "completed"
            assert client.results(job_id, k=1)["top"]
            assert any(job["job_id"] == job_id
                       for job in client.jobs())
            stats = client.stats()["stats"]
            assert stats["rejected"].get("disk_low", 0) >= 1

    def test_watermark_breach_triggers_retention_passes(
            self, sockets, tmp_path):
        config = make_config(sockets, tmp_path,
                             disk_high_watermark_bytes=1,
                             disk_poll_s=0.05)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            journal = tmp_path / "jobs" / f"{job_id}.journal.jsonl"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if client.stats()["stats"]["compacted_jobs"] >= 1:
                    break
                time.sleep(0.02)
            # The governor compacted the finished job on its own.
            assert client.stats()["stats"]["compacted_jobs"] >= 1
            assert len(journal.read_bytes().splitlines()) == 1


class TestPersistence:
    def test_finished_wall_and_compacted_survive_restart(
            self, sockets, tmp_path):
        config = make_config(sockets, tmp_path)
        with ThreadedService(config):
            client = ServiceClient(config.socket_path)
            job_id = run_one_job(client)
            manifest = read_manifest(tmp_path, job_id)
            assert manifest["finished_wall"] > 0
            assert manifest["compacted"] is False
            client.retention()
            assert read_manifest(tmp_path, job_id)["compacted"] is True

        config2 = make_config(sockets, tmp_path, name="b")
        with ThreadedService(config2):
            client2 = ServiceClient(config2.socket_path)
            assert client2.status(job_id)["state"] == "completed"
            # The restarted server remembers the compaction: the job
            # is not folded a second time.
            assert client2.retention()["compacted"] == []
            assert client2.results(job_id, k=1)["top"]


class TestConfigValidation:
    def test_disk_poll_must_be_positive(self, sockets, tmp_path):
        with pytest.raises(InputError):
            SweepService(make_config(sockets, tmp_path, disk_poll_s=0.0))

    def test_watermark_pair_is_validated(self, sockets, tmp_path):
        with pytest.raises(InputError):
            SweepService(make_config(sockets, tmp_path,
                                     disk_high_watermark_bytes=10,
                                     disk_low_watermark_bytes=20))
