"""The one durable-file path: atomic publish, writer locks, stale temps.

``avipack.durability.files`` is the only code that writes, locks or
quarantines an artifact, so its contract is tested once here and then
at every call site under a full disk: ``os.fsync`` raising ``ENOSPC``
must leave each destination with its old bytes (or absent) and no temp
beside it.
"""

import errno
import os

import numpy as np
import pytest

from avipack.__main__ import main
from avipack.durability import SweepJournal, replay_journal
from avipack.durability.files import (
    atomic_write,
    open_locked,
    quarantine,
    sweep_stale_tmp,
)
from avipack.errors import DurabilityError, ResultStoreError
from avipack.results import ResultStore, ResultStoreWriter
from avipack.results.schema import ROW_DTYPE
from avipack.results.store import publish_shard
from avipack.retention import compact_journal, compact_store
from avipack.service.jobs import JobStore
from avipack.sweep import Candidate


def leftovers(root):
    """Every temp-looking file under ``root``, old naming included."""
    return sorted(name for _, _, names in os.walk(root)
                  for name in names if ".tmp" in name)


def read_or_none(path):
    try:
        with open(path, "rb") as stream:
            return stream.read()
    except FileNotFoundError:
        return None


def make_journal(path):
    candidates = tuple(Candidate(power_per_module=10.0 + 5.0 * i)
                       for i in range(3))
    SweepJournal.create(str(path), candidates).close()
    return str(path)


def enospc(fd):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrite:
    def test_publishes_chunks_in_order(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write(path, b"head\n", b"", b"payload" * 1000)
        assert read_or_none(path) == b"head\n" + b"payload" * 1000
        assert leftovers(tmp_path) == []

    def test_write_flush_fsync_replace_order(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.bin")
        (tmp_path / "out.bin").write_bytes(b"old")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            # Written and flushed: the temp already holds every byte.
            [tmp] = leftovers(tmp_path)
            assert tmp.startswith("out.bin.tmp.")
            assert (tmp_path / tmp).read_bytes() == b"new bytes"
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            assert read_or_none(src) == b"new bytes"
            assert read_or_none(dst) == b"old"
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        atomic_write(path, b"new ", b"bytes",
                     phase_hook=lambda phase: events.append(f"hook:{phase}"))
        assert events == ["hook:write", "hook:fsync", "fsync",
                          "hook:replace", "replace"]
        assert read_or_none(path) == b"new bytes"
        assert leftovers(tmp_path) == []

    @pytest.mark.parametrize("step", [
        "hook:write", "hook:fsync", "hook:replace",
        "write", "fsync", "replace"])
    def test_failure_at_any_step_keeps_old_bytes_and_no_temp(
            self, tmp_path, monkeypatch, step):
        path = str(tmp_path / "out.bin")
        (tmp_path / "out.bin").write_bytes(b"old")

        class Boom(Exception):
            pass

        def hook(phase):
            if step == f"hook:{phase}":
                raise Boom(phase)

        def fail(*args):
            raise OSError(errno.EIO, "I/O error")

        chunks = [b"new"]
        if step == "write":
            chunks.append("not bytes")  # TypeError inside the write loop
        elif step in ("fsync", "replace"):
            monkeypatch.setattr(os, step, fail)
        with pytest.raises((Boom, OSError, TypeError)):
            atomic_write(path, *chunks, phase_hook=hook)
        assert read_or_none(path) == b"old"
        assert leftovers(tmp_path) == []


class TestLocksAndSweeps:
    def test_open_locked_refuses_a_second_holder(self, tmp_path):
        path = str(tmp_path / "artifact.lock")
        held = open_locked(path, DurabilityError("first"))
        try:
            with pytest.raises(ResultStoreError, match="busy"):
                open_locked(path, ResultStoreError("busy"))
        finally:
            held.close()
        open_locked(path, DurabilityError("released")).close()

    def test_forked_child_does_not_hold_the_lock(self, tmp_path):
        # A pool worker the watchdog abandons outlives its campaign; the
        # lock it inherited must not outlive the parent's stream.
        path = str(tmp_path / "artifact.lock")
        held = open_locked(path, DurabilityError("first"))
        started, hold = os.pipe(), os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            os.write(started[1], b"x")
            os.read(hold[0], 1)
            os._exit(0)
        try:
            os.read(started[0], 1)
            held.close()
            open_locked(path, DurabilityError("inherited")).close()
        finally:
            os.write(hold[1], b"x")
            os.waitpid(child, 0)
            for fd in started + hold:
                os.close(fd)

    def test_sweep_removes_only_matching_temps(self, tmp_path):
        names = ["j.jsonl", "j.jsonl.tmp.ab_12", "j.jsonl.tmp.4242",
                 "j.jsonl.quarantine.tmp.x1", "jj.jsonl.tmp.y2",
                 "j.jsonl.compact.77.tmp"]
        for name in names:
            (tmp_path / name).write_bytes(b"x")
        sweep_stale_tmp(str(tmp_path), r"j\.jsonl")
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["j.jsonl", "j.jsonl.quarantine.tmp.x1", "jj.jsonl.tmp.y2",
             "j.jsonl.compact.77.tmp"])

    def test_quarantine_renames_and_records_reason(self, tmp_path):
        path = str(tmp_path / "shard-000000.rows")
        (tmp_path / "shard-000000.rows").write_bytes(b"damaged")
        quarantine(path, {"file": "shard-000000.rows", "reason": "header"})
        assert read_or_none(path + ".quarantine") == b"damaged"
        assert read_or_none(path + ".quarantine.reason") == \
            b'{"file": "shard-000000.rows", "reason": "header"}\n'
        assert read_or_none(path) is None

    def test_refused_compactor_leaves_the_lock_holders_temps(self,
                                                             tmp_path):
        path = make_journal(tmp_path / "sweep.jsonl")
        in_flight = ["sweep.jsonl.tmp.k3j2x9", "sweep.jsonl.compact.42.tmp"]
        for name in in_flight:
            (tmp_path / name).write_bytes(b"in-flight")
        holder = SweepJournal.append_to(path)
        try:
            with pytest.raises(DurabilityError):
                compact_journal(path)
            for name in in_flight:
                assert (tmp_path / name).read_bytes() == b"in-flight"
        finally:
            holder.close()
        # With the lock free, the next compaction sweeps the stale temp.
        compact_journal(path)
        assert not (tmp_path / "sweep.jsonl.tmp.k3j2x9").exists()

    def test_nested_compactor_cannot_break_an_in_flight_publish(
            self, tmp_path):
        path = make_journal(tmp_path / "sweep.jsonl")
        refused = []

        def hook(phase):
            if phase == "fsync":
                with pytest.raises(DurabilityError):
                    compact_journal(path)
                refused.append(leftovers(tmp_path))

        compact_journal(path, phase_hook=hook)
        [[temp]] = refused
        assert temp.startswith("sweep.jsonl.tmp.")
        assert replay_journal(path, write_quarantine=False).n_records == 1
        assert leftovers(tmp_path) == []

    def test_compact_store_sweeps_killed_shard_publishes(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        stale = ["shard-000001.rows.tmp.abc123", "shard-000007.rows.tmp.q"]
        reader_temp = "shard-000003.rows.quarantine.reason.tmp.zz9"
        for name in stale + [reader_temp]:
            (directory / name).write_bytes(b"partial")
        writer = ResultStoreWriter(str(directory))
        try:
            with pytest.raises(ResultStoreError):
                compact_store(str(directory))
            assert leftovers(directory) == sorted(stale + [reader_temp])
        finally:
            writer.close()
        compact_store(str(directory))
        assert leftovers(directory) == [reader_temp]


def manifest_save(tmp_path):
    store = JobStore(str(tmp_path / "jobs"))
    store.save_manifest("j000001", {"state": "queued"})
    return (store._manifest_path("j000001"),
            lambda: store.save_manifest("j000001", {"state": "running"}))


def checkpoint_publish(tmp_path):
    path = make_journal(tmp_path / "sweep.jsonl")
    return path, lambda: compact_journal(path)


def journal_quarantine_sidecar(tmp_path):
    path = make_journal(tmp_path / "sweep.jsonl")
    with open(path, "ab") as stream:
        stream.write(b'{"torn": \n')
    sidecar = path + ".quarantine"
    with open(sidecar, "wb") as stream:
        stream.write(b"old sidecar\n")
    return sidecar, lambda: replay_journal(path)


def shard_publish(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    rows = np.zeros(3, dtype=ROW_DTYPE)
    rows["fingerprint"] = b"0" * 40  # packable: 40 hex characters
    return (str(directory / "shard-000000.rows"),
            lambda: publish_shard(str(directory), 0, rows))


def store_reason_sidecar(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    (directory / "shard-000000.rows").write_bytes(b"not a header\n")
    return (str(directory / "shard-000000.rows.quarantine.reason"),
            lambda: ResultStore.open(str(directory)))


def report_json(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"old": true}\n')
    return str(path), lambda: main(
        ["sweep", "--serial", "--sample", "2", "--report-json", str(path)])


@pytest.mark.parametrize("call_site", [
    manifest_save, checkpoint_publish, journal_quarantine_sidecar,
    shard_publish, store_reason_sidecar, report_json],
    ids=lambda call_site: call_site.__name__)
def test_full_disk_keeps_old_bytes_and_leaves_no_temp(
        tmp_path, monkeypatch, capsys, call_site):
    destination, action = call_site(tmp_path)
    before = read_or_none(destination)
    monkeypatch.setattr(os, "fsync", enospc)
    with pytest.raises(OSError) as excinfo:
        action()
    assert excinfo.value.errno == errno.ENOSPC
    assert read_or_none(destination) == before
    assert leftovers(tmp_path) == []
