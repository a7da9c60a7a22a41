"""Job records, event buffers and the crash-safe manifest store.

A job is one sweep submission moving through the lifecycle::

    queued -> running -> completed | failed | cancelled
                      -> interrupted           (drain; resumable)

Two artefacts make every job crash-safe:

* its **write-ahead journal** (``<id>.journal.jsonl``) — the PR 5
  :class:`~avipack.durability.SweepJournal` the runner appends every
  outcome to, which makes candidate-level work durable;
* its **manifest** (``<id>.manifest.json``) — a small JSON document
  holding the submission, priority, state and (on completion) the
  ranking summary, republished with
  :func:`~avipack.durability.files.atomic_write` on every state
  change, which makes job-level *metadata* durable.

On restart the server replays the manifest directory: ``queued`` jobs
re-enter the queue, ``running``/``interrupted`` jobs are resumed from
their journals, terminal jobs are loaded for status queries only.
Event buffers are process-local (sequence numbers restart with the
server); everything rankings depend on lives in journal + manifest.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..durability.files import atomic_write
from ..errors import ServiceError
from ..retention.budget import directory_bytes

__all__ = ["ACTIVE_STATES", "TERMINAL_STATES", "Job", "JobStore"]

#: States in which a job still owns (or will own) compute.
ACTIVE_STATES = ("queued", "running")

#: States a job never leaves (interrupted is *not* terminal: a restart
#: resumes it).
TERMINAL_STATES = ("completed", "failed", "cancelled")

_MANIFEST_SUFFIX = ".manifest.json"
_JOURNAL_SUFFIX = ".journal.jsonl"

#: Manifest fields persisted verbatim.
_PERSISTED_FIELDS = ("job_id", "client", "priority", "state",
                     "submission", "fingerprint", "total", "result",
                     "error", "cancel_reason", "submit_order",
                     "finished_wall", "compacted")


@dataclass
class Job:
    """One submission plus its runtime bookkeeping."""

    job_id: str
    client: str
    priority: int
    submission: Dict[str, Any]
    fingerprint: str
    journal_path: str
    state: str = "queued"
    #: Monotone admission order (tie-break within a priority class).
    submit_order: int = 0
    #: Candidates this job comprises (known at admission).
    total: int = 0
    #: Candidates evaluated by this server process.
    done: int = 0
    #: Candidates restored from the journal by a resume.
    restored: int = 0
    #: Set to a reason string to request cooperative cancellation.
    cancel_reason: Optional[str] = None
    #: Terminal error description (failed jobs).
    error: Optional[str] = None
    #: Completion summary (ranking signature, counters).
    result: Optional[Dict[str, Any]] = None
    #: True when this process should resume from the journal instead of
    #: starting fresh (set by startup recovery).
    resume: bool = False
    #: Wall-clock instant the job reached a terminal state (0.0 while
    #: active) — the age the retention policy's ``max_age_s`` measures.
    finished_wall: float = 0.0
    #: True once a retention pass compacted this job's journal and
    #: result store (terminal jobs only write again if evicted).
    compacted: bool = False
    #: Monotonic start instant of the current run (0.0 = not running).
    started_monotonic: float = 0.0
    #: Monotonic instant of the last progress callback.
    last_progress_monotonic: float = 0.0

    # -- event buffer (process-local) ---------------------------------------

    #: Buffered events, oldest first; ``events[i]["seq"]`` is
    #: ``event_base_seq + i``.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Sequence number of ``events[0]`` (advances when the bounded
    #: buffer evicts its head).
    event_base_seq: int = 0
    #: Sequence number the next event will carry.
    next_seq: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def deadline_s(self) -> Optional[float]:
        return self.submission.get("deadline_s")

    def append_event(self, event: Dict[str, Any],
                     max_events: int) -> None:
        """Buffer one event, evicting the head beyond ``max_events``."""
        self.events.append(event)
        self.next_seq = event["seq"] + 1
        overflow = len(self.events) - max_events
        if overflow > 0:
            del self.events[:overflow]
            self.event_base_seq += overflow

    def events_from(self, from_seq: int) -> List[Dict[str, Any]]:
        """Buffered events with ``seq >= from_seq``.

        Raises :class:`~avipack.errors.ServiceError` (code
        ``replay_gap``) when the buffer no longer reaches back that
        far — or when ``from_seq`` points beyond every sequence number
        this server instance has issued (the client watched a previous
        incarnation; it must restart from the buffer head).
        """
        if from_seq < self.event_base_seq or from_seq > self.next_seq:
            raise ServiceError(
                f"cannot replay job {self.job_id} events from seq "
                f"{from_seq}: buffer covers [{self.event_base_seq}, "
                f"{self.next_seq})", code="replay_gap")
        return self.events[from_seq - self.event_base_seq:]

    # -- manifest ------------------------------------------------------------

    def to_manifest(self) -> Dict[str, Any]:
        manifest = {name: getattr(self, name)
                    for name in _PERSISTED_FIELDS}
        manifest["journal"] = os.path.basename(self.journal_path)
        return manifest

    @classmethod
    def from_manifest(cls, manifest: Dict[str, Any],
                      journal_dir: str) -> "Job":
        job = cls(
            job_id=str(manifest["job_id"]),
            client=str(manifest.get("client", "anonymous")),
            priority=int(manifest.get("priority", 0)),
            submission=dict(manifest["submission"]),
            fingerprint=str(manifest["fingerprint"]),
            journal_path=os.path.join(
                journal_dir,
                str(manifest.get("journal",
                                 manifest["job_id"] + _JOURNAL_SUFFIX))),
            state=str(manifest.get("state", "queued")),
            submit_order=int(manifest.get("submit_order", 0)),
            total=int(manifest.get("total", 0)),
        )
        job.result = manifest.get("result")
        job.error = manifest.get("error")
        job.cancel_reason = manifest.get("cancel_reason")
        job.finished_wall = float(manifest.get("finished_wall", 0.0))
        job.compacted = bool(manifest.get("compacted", False))
        return job

    def status(self) -> Dict[str, Any]:
        """JSON-ready snapshot for ``status`` responses."""
        return {
            "job_id": self.job_id,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "total": self.total,
            "done": self.done,
            "restored": self.restored,
            "cancel_reason": self.cancel_reason,
            "error": self.error,
            "result": self.result,
            "next_seq": self.next_seq,
        }


class JobStore:
    """Atomic manifest persistence under one journal directory."""

    def __init__(self, journal_dir: str) -> None:
        self.journal_dir = journal_dir
        os.makedirs(journal_dir, exist_ok=True)

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.journal_dir, job_id + _JOURNAL_SUFFIX)

    def result_dir(self, job_id: str) -> str:
        """Per-job columnar result-store directory (sibling of the
        journal, so a job's durable state lives under one root)."""
        return os.path.join(self.journal_dir, job_id + ".results")

    def _manifest_path(self, job_id: str) -> str:
        return os.path.join(self.journal_dir, job_id + _MANIFEST_SUFFIX)

    def save(self, job: Job) -> None:
        """Atomically (re)write one job manifest."""
        self.save_manifest(job.job_id, job.to_manifest())

    def save_manifest(self, job_id: str,
                      manifest: Dict[str, Any]) -> None:
        """Write a pre-snapshotted manifest document.

        Split out from :meth:`save` so the event loop can snapshot the
        job synchronously (the bytes reflect its state at the call
        site) and hand only this blocking write to a worker thread.
        """
        atomic_write(self._manifest_path(job_id),
                     json.dumps(manifest, sort_keys=True).encode("utf-8"))

    def job_paths(self, job_id: str) -> List[str]:
        """Every on-disk path belonging to one job — journal,
        quarantine sidecars, result-store directory, manifest.

        Job ids are fixed-width (``j000042``), so the ``<id>.`` prefix
        match cannot leak onto a neighbouring job's files.
        """
        prefix = job_id + "."
        return sorted(os.path.join(self.journal_dir, name)
                      for name in os.listdir(self.journal_dir)
                      if name.startswith(prefix))

    def job_bytes(self, job_id: str) -> int:
        """On-disk footprint of one job, result store included."""
        return sum(directory_bytes(path) for path in self.job_paths(job_id))

    def remove_job(self, job_id: str) -> int:
        """Delete every file of one evicted job; returns bytes removed.

        The manifest goes *last*: a crash mid-eviction leaves a job
        that still loads at restart (with files partially gone — its
        state is terminal, so nothing re-runs) rather than orphan
        journals no manifest names, which nothing would ever clean.
        """
        removed = self.job_bytes(job_id)
        manifest = self._manifest_path(job_id)
        for path in self.job_paths(job_id):
            if path == manifest:
                continue
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                try:
                    os.unlink(path)
                except OSError:
                    continue
        try:
            os.unlink(manifest)
        except OSError:
            pass
        return removed

    def load_all(self) -> List[Job]:
        """Every readable manifest, in admission order.

        A torn manifest cannot exist (writes are atomic), but an
        unreadable one — wrong schema, manual edits — is skipped
        rather than killing startup: its journal stays on disk for
        manual recovery.
        """
        jobs: List[Job] = []
        for name in sorted(os.listdir(self.journal_dir)):
            if not name.endswith(_MANIFEST_SUFFIX):
                continue
            path = os.path.join(self.journal_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    manifest = json.load(stream)
                jobs.append(Job.from_manifest(manifest, self.journal_dir))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        jobs.sort(key=lambda job: job.submit_order)
        return jobs
