"""The resilient sweep job server (asyncio, JSON lines, Unix socket).

:class:`SweepService` turns the batch :class:`~avipack.sweep.SweepRunner`
into an always-on, multi-tenant service.  One asyncio event loop owns
all bookkeeping (jobs, queue, event buffers, stats); sweeps run one
at a time on a worker thread so the loop never blocks; every outcome a
job produces is write-ahead journalled before any event about it is
emitted.  Every state change of a job goes through one method that
saves the job's manifest *before* it announces the state, so a client
told of a state finds it on disk; a failed save still announces it
and frees the job slot, so the queue and the drain move on, and a
failed terminal save is retried on every heartbeat until it succeeds.
Robustness properties, in the order they matter:

* **Admission control** — bounded queue, per-client quotas and a
  per-job size bound; overload rejects with a structured reason
  (:mod:`avipack.service.admission`) instead of growing unboundedly.
* **Heartbeats + stuck-job detection** — a heartbeat event per active
  job every ``heartbeat_s``; a running job that makes no candidate
  progress for ``stall_timeout_s`` is flagged and cooperatively
  cancelled.  Combine with ``candidate_timeout_s`` (the PR 2
  per-candidate watchdog) so even a hung worker process is abandoned
  and progress resumes.
* **Deadline enforcement** — a per-job ``deadline_s`` (submission) or
  server default; jobs over deadline are cancelled at the next
  candidate boundary, their journalled prefix intact.
* **Cooperative cancellation** — cancellation/deadline/stall/drain all
  take effect at the next outcome boundary, *after* the triggering
  outcome is journalled, so no acknowledged work is ever lost.
* **Graceful drain** — SIGTERM/SIGINT stop admission, interrupt
  running jobs at the next candidate boundary (journals flushed and
  closed cleanly, manifests marked ``interrupted``), persist queued
  jobs, and exit 0.
* **Crash-safe restart** — on startup the journal directory is
  scanned: ``queued`` manifests re-enter the queue, ``running`` and
  ``interrupted`` manifests resume via
  :meth:`~avipack.sweep.SweepRunner.resume`, producing rankings
  identical to an uninterrupted run.
* **Disk-budget governance** — when watermarks are configured, a
  governor polls the journal directory's footprint off the event loop;
  crossing the high watermark triggers a retention pass (compact every
  finished job's journal and result store, evict finished jobs per the
  :class:`~avipack.retention.RetentionPolicy`) and latches degraded
  admission: new submissions are refused with the structured
  ``disk_low`` code while running jobs, status, streams and ``results``
  queries keep serving.  Usage must fall back to the low watermark to
  restore admission (hysteresis — no flapping at the threshold).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import os
import signal
import socket as socket_mod
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .. import perf as _perf
from ..durability.journal import outcome_kind
from ..errors import AvipackError, InputError, ServiceError
from ..retention import (
    DiskBudget,
    RetentionPolicy,
    compact_journal,
    compact_store,
    directory_bytes,
)
from ..sweep.runner import SweepRunner, SweepTask, evaluate_candidate
from .admission import AdmissionPolicy, JobQueue, admit
from .jobs import Job, JobStore
from .protocol import (
    ProtocolError,
    build_candidates,
    decode_line,
    encode_line,
    error_response,
    normalize_submission,
    submission_fingerprint,
    validate_request,
)
from .stats import SERVICE_KERNEL, ServiceStats

__all__ = ["ServiceConfig", "SweepService", "ThreadedService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one server instance needs to run."""

    #: Unix-domain socket path clients connect to.
    socket_path: str
    #: Directory holding per-job journals and manifests.
    journal_dir: str
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Heartbeat period [s] for active jobs.
    heartbeat_s: float = 1.0
    #: RUNNING job with no candidate progress for this long is flagged
    #: stalled and cooperatively cancelled.
    stall_timeout_s: float = 300.0
    #: Default per-job deadline [s] (submissions may set their own).
    deadline_s: Optional[float] = None
    #: Per-candidate watchdog [s] handed to the runner (parallel mode).
    candidate_timeout_s: Optional[float] = None
    #: Runner parallelism (process pool) inside each job.
    parallel: bool = True
    #: Runner pool width (``None`` = runner default).
    max_workers: Optional[int] = None
    #: Artificial per-candidate delay [s] — pacing hook for demos and
    #: the drain/chaos tests (0 disables).
    throttle_s: float = 0.0
    #: Events buffered per job for reconnect-and-replay.
    event_buffer: int = 10_000
    #: High disk watermark [bytes] over ``journal_dir``: reaching it
    #: triggers a retention pass and latches degraded (``disk_low``)
    #: admission.  ``None`` disables the governor.
    disk_high_watermark_bytes: Optional[int] = None
    #: Low watermark [bytes] admission recovery requires (default:
    #: half the high watermark) — the hysteresis band.
    disk_low_watermark_bytes: Optional[int] = None
    #: Disk-usage poll period [s]; the walk runs on the IO worker.
    disk_poll_s: float = 5.0
    #: Eviction bounds for *finished* jobs.  Compaction always runs in
    #: a retention pass; eviction only with an enabled clause.
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)


class _CancelSweep(Exception):
    """Raised inside the progress hook to stop a sweep cooperatively."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _ThrottledEvaluator:
    """Picklable evaluator adding a fixed per-candidate delay.

    The pacing hook behind ``ServiceConfig.throttle_s``: it keeps each
    candidate slow enough that drain/kill tests land signals
    mid-campaign deterministically, without touching physics.
    """

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def __call__(self, task: SweepTask):
        time.sleep(self.delay_s)
        return evaluate_candidate(task)


class _LoopProgressHook:
    """Parent-process progress hook bridging sweep thread and loop.

    The runner invokes progress hooks in the submitting process (never
    in pool workers), here the job's worker thread, *after* each
    outcome is durably journalled.  The hook notifies the event loop
    first, then honours any pending cancellation — so the triggering
    outcome is never lost to a cancel/deadline/drain.
    """

    def __init__(self, service: "SweepService", job: Job) -> None:
        self.service = service
        self.job = job

    def __call__(self, outcome) -> None:
        loop = self.service._loop
        assert loop is not None
        loop.call_soon_threadsafe(self.service._on_progress, self.job,
                                  _outcome_event(outcome))
        reason = self.job.cancel_reason
        if reason is not None:
            raise _CancelSweep(reason)


class SweepService:
    """One job-server instance (see module docstring for semantics)."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.heartbeat_s <= 0.0:
            raise InputError("heartbeat_s must be positive")
        if config.disk_poll_s <= 0.0:
            raise InputError("disk_poll_s must be positive")
        self.config = config
        self._budget: Optional[DiskBudget] = None
        if config.disk_high_watermark_bytes is not None:
            low = (config.disk_low_watermark_bytes
                   if config.disk_low_watermark_bytes is not None
                   else config.disk_high_watermark_bytes // 2)
            self._budget = DiskBudget(config.disk_high_watermark_bytes,
                                      low)
        #: Reentrancy guard: retention passes are serialised (they
        #: hold journal/store locks; overlap would only contend).
        self._retention_running = False
        self.stats = ServiceStats()
        self.store = JobStore(config.journal_dir)
        self._jobs: Dict[str, Job] = {}
        self._queue = JobQueue()
        #: The one job running now, and its task (kept referenced).
        self._running: Optional[Job] = None
        self._job_task: Optional["asyncio.Task[None]"] = None
        #: Ids of jobs whose terminal manifest save failed; the
        #: heartbeat saves each again until a save succeeds.
        self._unsaved: Set[str] = set()
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        self._order = itertools.count()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        #: One job runs at a time, on this single worker thread.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="avipack-job")
        #: Dedicated single worker for manifest writes and result-store
        #: reads.  Separate from ``_executor`` (saves must never queue
        #: behind long sweeps) and single-threaded so manifest writes
        #: for one job retain their submission order.
        self._io_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="avipack-io")
        #: Set by :meth:`serve` once the socket is bound; other threads
        #: may wait on it.
        self.ready = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    async def serve(self) -> None:
        """Run until drained; returns (exit 0) after a graceful stop."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        # Startup I/O (manifest replay, socket probe) runs on the IO
        # worker: nothing else touches loop state yet, and the loop
        # stays responsive to signals while a large manifest directory
        # replays.
        await self._loop.run_in_executor(self._io_executor,
                                         self._recover)
        await self._loop.run_in_executor(self._io_executor,
                                         self._claim_socket)
        server = await asyncio.start_unix_server(
            self._handle_client, path=self.config.socket_path)
        self.ready.set()
        self._install_signal_handlers()
        heartbeat = asyncio.create_task(self._heartbeat_loop())
        governor = asyncio.create_task(self._budget_loop())
        self._schedule()
        try:
            await self._stopped.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in (heartbeat, governor):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            self._executor.shutdown(wait=True)
            self._io_executor.shutdown(wait=True)
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    def _claim_socket(self) -> None:
        """Refuse to steal a live socket; clear a stale one."""
        path = self.config.socket_path
        if not os.path.exists(path):
            return
        probe = socket_mod.socket(socket_mod.AF_UNIX,
                                  socket_mod.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale socket from a dead server
        else:
            raise ServiceError(
                f"socket {path} already serves a live server; stop it "
                "or choose another --socket path", code="socket_in_use")
        finally:
            probe.close()

    def _install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT drain the server (main-thread loops only)."""
        if threading.current_thread() is not threading.main_thread():
            return
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(
                signum, self.begin_drain, signal.Signals(signum).name)

    def _recover(self) -> None:
        """Replay the manifest directory into queue + job table."""
        for job in self.store.load_all():
            self._jobs[job.job_id] = job
            if job.state in ("running", "interrupted"):
                job.state = "queued"
                job.resume = True
                job.cancel_reason = None
                self.store.save(job)
                self._queue.push(job.job_id, job.priority,
                                 job.submit_order)
                self.stats.recovered_jobs += 1
            elif job.state == "queued":
                self._queue.push(job.job_id, job.priority,
                                 job.submit_order)
                self.stats.recovered_jobs += 1
        highest = max((job.submit_order for job in self._jobs.values()),
                      default=-1)
        self._order = itertools.count(highest + 1)

    async def _save_job(self, job: Job) -> None:
        """Persist one job manifest without blocking the event loop.

        The manifest is snapshotted *synchronously* — the written bytes
        reflect the job's state at this call site even if the loop
        mutates the job during the await — and the fsync'd write runs
        on the single IO worker, which serialises saves in issue order.
        """
        manifest = job.to_manifest()
        assert self._loop is not None
        await self._loop.run_in_executor(
            self._io_executor, self.store.save_manifest,
            job.job_id, manifest)

    def begin_drain(self, reason: str = "drain") -> None:
        """Stop admission, interrupt running jobs, exit when quiet."""
        if self._draining:
            return
        self._draining = True
        self.stats.drains += 1
        job = self._running
        if job is not None:
            if job.cancel_reason is None:
                job.cancel_reason = "drain"
            self._emit(job, "draining", reason=reason)
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if self._draining and self._running is None \
                and self._stopped is not None:
            self._stopped.set()

    # -- scheduling and execution --------------------------------------------

    def _schedule(self) -> None:
        while not self._draining and self._running is None:
            job_id = self._queue.pop()
            if job_id is None:
                break
            job = self._jobs[job_id]
            if job.state != "queued":
                continue
            self._running = job
            self._job_task = asyncio.create_task(self._run_job(job))

    async def _transition(self, job: Job, state: str,
                          error: Optional[str] = None, /,
                          **fields: Any) -> None:
        """Move ``job`` to ``state``: the one place a job changes state.

        Sets the state, the error and (on a terminal state)
        ``finished_wall``, counts the transition, saves the manifest and
        only then emits the event (``started`` for ``running``), so a
        client told of a state finds it on disk.  The event goes out
        even when the save raises; the exception then propagates.
        """
        job.state = state
        job.error = error
        if job.terminal:
            job.finished_wall = time.time()
        name = "started" if state == "running" else state
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        try:
            await self._save_job(job)
        finally:
            self._emit(job, name, terminal=job.terminal, **fields)

    async def _run_job(self, job: Job) -> None:
        assert self._loop is not None
        job.started_monotonic = time.monotonic()
        job.last_progress_monotonic = job.started_monotonic
        try:
            try:
                await self._transition(job, "running", resume=job.resume,
                                       total=job.total)
                report = await self._loop.run_in_executor(
                    self._executor, self._execute_job, job)
            except _CancelSweep as cancel:
                if cancel.reason == "drain":
                    await self._transition(job, "interrupted",
                                           reason=cancel.reason,
                                           done=job.done)
                else:
                    await self._transition(
                        job, "cancelled", f"cancelled: {cancel.reason}",
                        reason=cancel.reason, done=job.done)
            except Exception as exc:  # defensive: a job never kills the loop
                error = f"{type(exc).__name__}: {exc}"
                await self._transition(job, "failed", error, error=error)
            else:
                job.result = self._summarize(report)
                durability = report.durability
                if durability is not None:
                    job.restored = durability.n_resumed
                    self.stats.restored_candidates += durability.n_resumed
                self.stats.record_job_perf(report.n_candidates,
                                           report.wall_time_s)
                await self._transition(
                    job, "completed", n_compliant=report.n_compliant,
                    n_failed=len(report.failures), restored=job.restored,
                    wall_s=round(report.wall_time_s, 6))
        except OSError:
            # The terminal state's manifest save failed; the state is
            # set and announced, and the heartbeat saves it again.
            self._unsaved.add(job.job_id)
        finally:
            # A failed manifest write must not wedge the queue or drain.
            self._running = None
            self._schedule()
            self._maybe_finish_drain()

    def _execute_job(self, job: Job):
        """Run one sweep (worker thread; never touches loop state)."""
        candidates = build_candidates(job.submission)
        evaluator = (_ThrottledEvaluator(self.config.throttle_s)
                     if self.config.throttle_s > 0.0 else None)
        runner = SweepRunner(
            parallel=self.config.parallel,
            max_workers=self.config.max_workers,
            timeout_s=self.config.candidate_timeout_s,
            evaluator=evaluator,
            result_store=self.store.result_dir(job.job_id))
        hook = _LoopProgressHook(self, job)
        if job.resume and os.path.exists(job.journal_path):
            return runner.resume(job.journal_path, progress=hook)
        return runner.run(candidates, journal_path=job.journal_path,
                          progress=hook)

    def _on_progress(self, job: Job, summary: Dict[str, Any]) -> None:
        """Loop-thread half of the progress hook."""
        job.done += 1
        job.last_progress_monotonic = time.monotonic()
        self.stats.evaluated_candidates += 1
        self._emit(job, "progress", done=job.done, total=job.total,
                   **summary)

    @staticmethod
    def _summarize(report) -> Dict[str, Any]:
        # Top-k selection, not a full-population sort (O(n log k)).
        ranking = [[o.fingerprint, o.cost_rank, round(o.worst_board_c, 9)]
                   for o in report.top(1000)]
        summary: Dict[str, Any] = {
            "n_candidates": report.n_candidates,
            "n_compliant": report.n_compliant,
            "n_failed": len(report.failures),
            "mode": report.mode,
            "wall_s": report.wall_time_s,
            "ranking": ranking,
        }
        if report.durability is not None:
            summary["durability"] = {
                "n_resumed": report.durability.n_resumed,
                "n_recomputed": report.durability.n_recomputed,
                "n_quarantined": report.durability.n_quarantined,
                "n_audit_failures": report.durability.n_audit_failures,
            }
        return summary

    # -- heartbeats, deadlines, stall detection ------------------------------

    async def _heartbeat_loop(self) -> None:
        assert self._stopped is not None
        while not self._stopped.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._stopped.wait(),
                                       timeout=self.config.heartbeat_s)
                return
            for job_id in list(self._unsaved):
                job = self._jobs.get(job_id)  # None once evicted
                with contextlib.suppress(OSError):
                    if job is not None:
                        await self._save_job(job)
                    self._unsaved.discard(job_id)
            now = time.monotonic()
            for job in list(self._jobs.values()):
                if job.state not in ("queued", "running"):
                    continue
                elapsed_s = (now - job.started_monotonic
                             if job.state == "running" else 0.0)
                self.stats.heartbeats += 1
                self._emit(job, "heartbeat", state=job.state,
                           done=job.done, total=job.total,
                           elapsed_s=round(elapsed_s, 3))
                if job.state != "running" or job.cancel_reason:
                    continue
                deadline_s = job.deadline_s or self.config.deadline_s
                if deadline_s is not None and elapsed_s > deadline_s:
                    job.cancel_reason = (
                        f"deadline: exceeded {deadline_s:g} s budget")
                    self._emit(job, "cancelling",
                               reason=job.cancel_reason)
                    continue
                idle_s = now - job.last_progress_monotonic
                if idle_s > self.config.stall_timeout_s:
                    job.cancel_reason = (
                        f"stalled: no candidate progress for "
                        f"{idle_s:.1f} s")
                    self._emit(job, "stalled", idle_s=round(idle_s, 3))
                    self._emit(job, "cancelling",
                               reason=job.cancel_reason)

    # -- disk budget and retention -------------------------------------------

    async def _budget_loop(self) -> None:
        """Poll disk usage off the loop; trigger retention on breach."""
        budget = self._budget
        if budget is None:
            return
        assert self._stopped is not None and self._loop is not None
        while not self._stopped.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._stopped.wait(),
                                       timeout=self.config.disk_poll_s)
                return
            usage = await self._loop.run_in_executor(
                self._io_executor, directory_bytes,
                self.config.journal_dir)
            if budget.observe(usage):
                await self._run_retention("watermark")

    def _disk_status(self) -> Dict[str, Any]:
        """JSON-ready governor state for stats/retention responses."""
        if self._budget is None:
            return {"disk_low": False, "usage_bytes": None,
                    "high_watermark_bytes": None,
                    "low_watermark_bytes": None}
        return {"disk_low": self._budget.disk_low,
                "usage_bytes": self._budget.last_usage,
                "high_watermark_bytes": self._budget.high_bytes,
                "low_watermark_bytes": self._budget.low_bytes}

    async def _run_retention(self, trigger: str) -> Dict[str, Any]:
        """One governor pass: compact finished jobs, evict per policy.

        Every blocking step (compaction, footprint walks, file
        removal) runs on the IO worker; only the job-table bookkeeping
        touches loop state.  Active jobs — queued, running,
        interrupted — are never compacted or evicted.
        """
        assert self._loop is not None
        if self._retention_running:
            return {"ok": True, "trigger": trigger, "compacted": [],
                    "evicted": [], "bytes_reclaimed": 0,
                    "skipped": "a retention pass is already running",
                    **self._disk_status()}
        self._retention_running = True
        try:
            self.stats.retention_passes += 1
            _perf.increment("retention.passes")
            reclaimed = 0
            compacted: List[str] = []
            for job in sorted(self._jobs.values(),
                              key=lambda j: j.submit_order):
                if not job.terminal or job.compacted:
                    continue
                freed = await self._loop.run_in_executor(
                    self._io_executor, self._compact_job_files, job)
                if freed is None:
                    continue
                job.compacted = True
                reclaimed += freed
                compacted.append(job.job_id)
                self.stats.compacted_jobs += 1
                await self._save_job(job)
            evicted_ids, evicted_bytes = await self._evict_jobs()
            reclaimed += evicted_bytes
            self.stats.reclaimed_bytes += reclaimed
            if self._budget is not None:
                usage = await self._loop.run_in_executor(
                    self._io_executor, directory_bytes,
                    self.config.journal_dir)
                self._budget.observe(usage)
            return {"ok": True, "trigger": trigger,
                    "compacted": compacted, "evicted": evicted_ids,
                    "bytes_reclaimed": reclaimed,
                    **self._disk_status()}
        finally:
            self._retention_running = False

    def _compact_job_files(self, job: Job) -> Optional[int]:
        """Blocking half of per-job compaction (IO worker).

        Returns bytes reclaimed, or ``None`` when the files could not
        be compacted this pass (lock contention, a journal with no
        intact plan) — the pass moves on and retries next time;
        nothing is ever torn.
        """
        reclaimed = 0
        try:
            if os.path.exists(job.journal_path):
                reclaimed += compact_journal(
                    job.journal_path).bytes_reclaimed
            result_dir = self.store.result_dir(job.job_id)
            if os.path.isdir(result_dir):
                reclaimed += compact_store(result_dir).bytes_reclaimed
        except AvipackError:
            return None
        return reclaimed

    async def _evict_jobs(self) -> "tuple[List[str], int]":
        """Evict finished jobs per the retention policy's clauses.

        A job is evicted when *any* enabled clause condemns it:
        beyond ``keep_last_n`` newest, older than ``max_age_s``, or
        past the cumulative ``max_bytes`` footprint (newest kept).
        """
        assert self._loop is not None
        policy = self.config.retention
        if not policy.bounded:
            return [], 0
        finished = [job for job in self._jobs.values() if job.terminal]
        finished.sort(key=lambda j: (j.finished_wall, j.submit_order),
                      reverse=True)
        victims: Dict[str, Job] = {}
        if policy.keep_last_n is not None:
            for job in finished[policy.keep_last_n:]:
                victims[job.job_id] = job
        if policy.max_age_s is not None:
            now = time.time()
            for job in finished:
                if job.finished_wall \
                        and now - job.finished_wall > policy.max_age_s:
                    victims[job.job_id] = job
        if policy.max_bytes is not None:
            total = 0
            for job in finished:
                if job.job_id in victims:
                    continue
                total += await self._loop.run_in_executor(
                    self._io_executor, self.store.job_bytes,
                    job.job_id)
                if total > policy.max_bytes:
                    victims[job.job_id] = job
        evicted: List[str] = []
        removed_bytes = 0
        for job in sorted(victims.values(),
                          key=lambda j: j.submit_order):
            removed_bytes += await self._loop.run_in_executor(
                self._io_executor, self.store.remove_job, job.job_id)
            self._jobs.pop(job.job_id, None)
            self._subscribers.pop(job.job_id, None)
            self.stats.evicted_jobs += 1
            _perf.increment("retention.evictions")
            evicted.append(job.job_id)
        return evicted, removed_bytes

    # -- events --------------------------------------------------------------

    def _emit(self, job: Job, event_type: str, terminal: bool = False,
              **fields: Any) -> None:
        event: Dict[str, Any] = {"event": event_type,
                                 "job_id": job.job_id,
                                 "seq": job.next_seq, **fields}
        if terminal:
            event["terminal"] = True
        job.append_event(event, self.config.event_buffer)
        self.stats.events += 1
        for queue in self._subscribers.get(job.job_id, []):
            queue.put_nowait(event)

    # -- connection handling -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = decode_line(line)
                    op, params = validate_request(request)
                except ProtocolError as exc:
                    await self._send(writer,
                                     error_response(exc.code, str(exc)))
                    continue
                if op == "stream":
                    if await self._handle_stream(params, writer):
                        break
                    continue
                await self._send(writer,
                                 await self._dispatch(op, params))
                if op == "shutdown":
                    self.begin_drain("shutdown request")
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        writer.write(encode_line(payload))
        await writer.drain()

    async def _dispatch(self, op: str, params: Dict[str, Any]
                        ) -> Dict[str, Any]:
        if op == "ping":
            return {"ok": True, "pong": True,
                    "draining": self._draining}
        if op == "submit":
            return await self._handle_submit(params)
        if op == "status":
            job = self._jobs.get(params["job_id"])
            if job is None:
                return error_response(
                    "unknown_job", f"no job {params['job_id']!r}")
            return {"ok": True, **job.status(),
                    "result_store": os.path.isdir(
                        self.store.result_dir(job.job_id))}
        if op == "cancel":
            return await self._handle_cancel(params)
        if op == "results":
            return await self._handle_results(params)
        if op == "jobs":
            return {"ok": True, "jobs": [
                {"job_id": job.job_id, "state": job.state,
                 "client": job.client, "priority": job.priority,
                 "done": job.done, "total": job.total}
                for job in sorted(self._jobs.values(),
                                  key=lambda j: j.submit_order)]}
        if op == "stats":
            return {"ok": True,
                    "stats": self.stats.snapshot(),
                    "perf": dataclasses.asdict(_perf.stats(SERVICE_KERNEL)),
                    "queued": len(self._queue),
                    "running": int(self._running is not None),
                    "draining": self._draining,
                    "disk": self._disk_status()}
        if op == "retention":
            return await self._run_retention("request")
        if op == "shutdown":
            return {"ok": True, "draining": True}
        return error_response("unknown_op", f"unhandled op {op!r}")

    async def _handle_submit(self, params: Dict[str, Any]
                             ) -> Dict[str, Any]:
        self.stats.submitted += 1
        try:
            submission = normalize_submission(params)
        except ProtocolError as exc:
            self.stats.reject(exc.code)
            return error_response(exc.code, str(exc))
        fingerprint = submission_fingerprint(submission)
        for job in self._jobs.values():
            if job.fingerprint == fingerprint \
                    and job.state in ("queued", "running"):
                self.stats.deduplicated += 1
                return {"ok": True, "job_id": job.job_id,
                        "state": job.state, "deduplicated": True,
                        "fingerprint": fingerprint}
        client = submission["client"]
        client_active = sum(
            1 for job in self._jobs.values()
            if job.client == client and job.state in ("queued", "running"))
        rejection = admit(self.config.admission,
                          n_candidates=submission["n_candidates"],
                          queued=len(self._queue),
                          client_active=client_active,
                          draining=self._draining,
                          disk_low=(self._budget.disk_low
                                    if self._budget is not None
                                    else False))
        if rejection is not None:
            self.stats.reject(rejection.code)
            if rejection.code == "disk_low":
                _perf.increment("retention.disk_low_refusals")
            return error_response(rejection.code, rejection.reason)
        order = next(self._order)
        job_id = f"j{order:06d}"
        job = Job(job_id=job_id, client=client,
                  priority=submission["priority"],
                  submission=submission, fingerprint=fingerprint,
                  journal_path=self.store.journal_path(job_id),
                  submit_order=order,
                  total=submission["n_candidates"])
        # Register *before* awaiting persistence: a concurrent submit
        # with the same fingerprint must dedup against this job, and a
        # concurrent cancel must be able to find it.
        self._jobs[job_id] = job
        try:
            await self._save_job(job)
        except Exception as exc:
            # Unsaved, the job would never be queued, yet a retried
            # submit would dedup onto it.
            self._jobs.pop(job_id, None)
            if not isinstance(exc, OSError):
                raise
            self.stats.reject("io_error")
            return error_response(
                "io_error", f"could not save job {job_id}: {exc}")
        self.stats.accepted += 1
        if job.state == "queued":  # a cancel may land during the await
            self._queue.push(job_id, job.priority, job.submit_order)
            self._emit(job, "queued", priority=job.priority,
                       total=job.total)
            self._schedule()
        return {"ok": True, "job_id": job_id, "state": job.state,
                "fingerprint": fingerprint,
                "n_candidates": job.total}

    async def _handle_cancel(self, params: Dict[str, Any]
                             ) -> Dict[str, Any]:
        job = self._jobs.get(params["job_id"])
        if job is None:
            return error_response("unknown_job",
                                  f"no job {params['job_id']!r}")
        if job.terminal:
            return error_response(
                "not_cancellable",
                f"job {job.job_id} is already {job.state}")
        reason = str(params.get("reason", "cancelled by client"))
        if job.state == "queued":
            self._queue.remove(job.job_id)
            await self._transition(job, "cancelled", f"cancelled: {reason}",
                                   reason=reason)
        elif job.cancel_reason is None:
            job.cancel_reason = reason
            self._emit(job, "cancelling", reason=reason)
        return {"ok": True, "job_id": job.job_id, "state": job.state}

    async def _handle_results(self, params: Dict[str, Any]
                              ) -> Dict[str, Any]:
        """Serve top-k + headroom analytics from the job's result store.

        Everything is read from the store's typed columns — no outcome
        payload is unpickled, whatever the campaign size — and the
        file I/O runs on the IO worker so a multi-shard read never
        stalls the event loop.
        """
        job = self._jobs.get(params["job_id"])
        if job is None:
            return error_response("unknown_job",
                                  f"no job {params['job_id']!r}")
        directory = self.store.result_dir(job.job_id)
        if not os.path.isdir(directory):
            return error_response(
                "no_results",
                f"job {job.job_id} has no columnar result store "
                "(no outcome recorded for it yet)")
        assert self._loop is not None
        return await self._loop.run_in_executor(
            self._io_executor, self._read_results, job, directory,
            int(params.get("k", 20)))

    def _read_results(self, job: Job, directory: str,
                      k: int) -> Dict[str, Any]:
        """Blocking half of ``results`` (runs on the IO worker)."""
        from ..errors import ResultStoreError
        from ..results import ResultStore, headroom_histogram, \
            ranked_row_ids
        try:
            store = ResultStore.open(directory)
            live = store.live_mask()
            n_live = int(live.sum())
            n_compliant = int((live & store.column("compliant")).sum())
            ids = ranked_row_ids(store, k)
            columns = {name: store.gather(name, ids)
                       for name in ("index", "fingerprint", "label",
                                    "cost_rank", "worst_board_c",
                                    "thermal_headroom_c")}
            counts, edges = headroom_histogram(store, bins=12)
        except ResultStoreError as exc:
            return error_response("no_results", str(exc))
        top = [
            {
                "position": position + 1,
                "index": int(columns["index"][position]),
                "fingerprint":
                    columns["fingerprint"][position].decode("ascii"),
                "label": columns["label"][position].decode("utf-8"),
                "cost_rank": float(columns["cost_rank"][position]),
                "worst_board_c":
                    float(columns["worst_board_c"][position]),
                "thermal_headroom_c":
                    float(columns["thermal_headroom_c"][position]),
            }
            for position in range(len(ids))]
        return {"ok": True, "job_id": job.job_id, "state": job.state,
                "n_rows": store.n_rows, "n_shards": store.n_shards,
                "n_live": n_live, "n_compliant": n_compliant,
                "quarantined_shards": list(store.quarantined),
                "top": top,
                "headroom_histogram": {
                    "counts": [int(count) for count in counts],
                    "edges": [float(edge) for edge in edges]}}

    async def _handle_stream(self, params: Dict[str, Any],
                             writer: asyncio.StreamWriter) -> bool:
        """Serve one event stream; True closes the connection after."""
        job = self._jobs.get(params["job_id"])
        if job is None:
            await self._send(writer, error_response(
                "unknown_job", f"no job {params['job_id']!r}"))
            return False
        from_seq = int(params.get("from_seq", 0))
        if from_seq > 0:
            self.stats.replays += 1
        try:
            backlog = job.events_from(from_seq)
        except ServiceError as exc:
            self.stats.replay_gaps += 1
            response = error_response(exc.code, str(exc))
            response["error"]["buffer_start"] = job.event_base_seq
            response["error"]["next_seq"] = job.next_seq
            await self._send(writer, response)
            return False
        subscribers = self._subscribers.setdefault(job.job_id, [])
        queue: asyncio.Queue = asyncio.Queue()
        subscribers.append(queue)
        try:
            await self._send(writer, {"ok": True, "job_id": job.job_id,
                                      "streaming": True,
                                      "from_seq": from_seq})
            last = from_seq - 1
            for event in backlog:
                await self._send(writer, event)
                last = event["seq"]
                if event.get("terminal"):
                    return True
            if job.terminal:
                # Terminal event predates from_seq: close with a
                # synthetic marker so the client still observes a
                # terminal event instead of a bare disconnect.
                await self._send(writer, {
                    "event": "closed", "job_id": job.job_id,
                    "seq": job.next_seq, "state": job.state,
                    "terminal": True})
                return True
            while True:
                event = await queue.get()
                if event["seq"] <= last:
                    continue
                await self._send(writer, event)
                last = event["seq"]
                if event.get("terminal"):
                    return True
        except (ConnectionResetError, BrokenPipeError):
            return True
        finally:
            subscribers.remove(queue)


def _outcome_event(outcome) -> Dict[str, Any]:
    """Flatten one candidate outcome into progress-event fields."""
    kind = outcome_kind(outcome)
    event: Dict[str, Any] = {"index": outcome.index,
                             "fingerprint": outcome.fingerprint,
                             "kind": kind}
    if kind == "completed":
        event["compliant"] = outcome.compliant
    else:
        event["error"] = f"{outcome.error_type}: {outcome.message}"
    return event


class ThreadedService:
    """Run a :class:`SweepService` on a background thread (tests, demos,
    embedding into synchronous programs).

    It installs no signal handlers (a loop off the main thread cannot
    own them); stop the service with :meth:`stop`, which performs the
    same graceful drain a SIGTERM would.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service = SweepService(self.config)
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "ThreadedService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def start(self, timeout_s: float = 10.0) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="avipack-service")
        self._thread.start()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.service.ready.wait(timeout=0.05):
                return
            if not self._thread.is_alive():
                raise ServiceError("service thread died during startup",
                                   code="startup_failed")
        raise ServiceError("service did not become ready in time",
                           code="startup_failed")

    def _run(self) -> None:
        asyncio.run(self.service.serve())

    def stop(self, timeout_s: float = 30.0) -> None:
        loop = self.service._loop
        if loop is not None and self._thread is not None \
                and self._thread.is_alive():
            loop.call_soon_threadsafe(self.service.begin_drain,
                                      "ThreadedService.stop")
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
