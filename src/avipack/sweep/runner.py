"""Evaluation of design-space candidates, serial or process-parallel.

:class:`SweepRunner` turns each candidate into a :class:`SweepTask`
and evaluates it serially or over a
:class:`concurrent.futures.ProcessPoolExecutor` (with a serial
fallback that produces bit-identical results).  It is robust to
individual candidate failures: a raised
:class:`~avipack.errors.InputError`,
:class:`~avipack.errors.SpecificationError` or solver non-convergence
becomes a structured :class:`CandidateFailure` record — never an aborted
sweep.

Beyond failure *isolation*, the runner carries the campaign's failure
*recovery*: every candidate is evaluated under an
:class:`avipack.resilience.Supervisor` (transient convergence failures
retried, level-3 breakdowns degraded to level-2 fidelity per the
:class:`~avipack.resilience.SupervisionPolicy`), a per-candidate
watchdog abandons workers that stop responding, a broken pool triggers
an automatic serial retry of the unfinished candidates, and a seeded
:class:`~avipack.resilience.FaultPlan` can be threaded through the
workers so all of the above is testable on demand.

A fresh run and a resumed one take the same campaign path: dispatch the
pending candidates, pass every outcome through one record step
(journal, then result store, then progress hook, once per candidate),
merge it with the outcomes restored from the journal (none on a fresh
run), and assemble the report.

Each worker process keeps a persistent
:class:`~avipack.sweep.cache.SolverCache`, so the repeated
sub-evaluations a grid generates (the same rack airflow solve reached
from every TIM choice, the same level-1 technique scan reached from
every cooling mode, ...) are computed once per worker; per-candidate
hit/miss deltas are carried back with each result and aggregated into
the sweep report.

Results preserve candidate order regardless of completion order, so a
serial and a parallel run of the same space rank identically.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .. import perf as _perf
from ..core.design_flow import run_design_procedure
from ..core.report import summarize_margins
from ..durability.audit import AUDIT_BOARD_LIMIT_C
from ..errors import InputError, JournalError
from ..perf import SolveStats
from ..packaging.cooling import CoolingTechnique
from ..resilience import faults as _faults
from ..resilience.faults import FaultPlan
from ..resilience.policy import RecoveryTrail, SupervisionPolicy
from ..resilience.supervisor import Supervisor
from .cache import (
    DEFAULT_WORKER_CACHE_MAX_ENTRIES,
    CacheStats,
    SolverCache,
    resolve_cache,
)
from .report import DurabilityStats, SweepReport
from .space import Candidate, DesignSpace

__all__ = ["CandidateFailure", "CandidateResult", "SweepRunner",
           "SweepTask", "evaluate_candidate"]

#: Cooling techniques by increasing installation cost/complexity — the
#: ranking behind "design at a minimum cost" (Fig. 5 simplicity order).
_TECHNIQUE_COST_RANK: Dict[CoolingTechnique, int] = {
    CoolingTechnique.FREE_CONVECTION: 0,
    CoolingTechnique.DIRECT_AIR_FLOW: 1,
    CoolingTechnique.AIR_FLOW_AROUND: 2,
    CoolingTechnique.CONDUCTION_COOLED: 3,
    CoolingTechnique.AIR_FLOW_THROUGH: 4,
    CoolingTechnique.LIQUID_FLOW_THROUGH: 5,
}

#: Exception attributes lifted into :attr:`CandidateFailure.details`.
_DETAIL_ATTRS = ("iterations", "residual", "limit_name", "limit_value",
                 "violations")


@dataclass(frozen=True)
class SweepTask:
    """One candidate evaluation request, as every evaluator receives it.

    Plain picklable data: the runner builds one per pending candidate
    and hands it to :func:`evaluate_candidate` (or a custom evaluator),
    in-process or across the pool boundary.
    """

    #: Position of the candidate in the campaign's candidate list.
    index: int
    candidate: Candidate
    #: Memoise solver sub-evaluations (see
    #: :func:`~avipack.sweep.cache.resolve_cache`).
    use_cache: bool = True
    #: Supervision policy; ``None`` uses the default policy.
    policy: Optional[SupervisionPolicy] = None
    #: Fault plan installed in the evaluating process, scoped to
    #: :attr:`index`.
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class CandidateResult:
    """One successfully evaluated candidate, flattened for transport.

    Carries the margin summary rather than the full
    :class:`~avipack.core.design_flow.DesignReview` so results stay
    small crossing process boundaries; every field pickles cleanly.
    """

    index: int
    candidate: Candidate
    fingerprint: str
    compliant: bool
    violations: Tuple[str, ...]
    margins: Dict[str, float]
    worst_board_c: float
    recommended_cooling: Optional[str]
    declared_cooling_feasible: bool
    cost_rank: float
    elapsed_s: float
    worker_pid: int
    cache_hits: int
    cache_misses: int
    #: Any level ran at reduced fidelity (see
    #: :func:`avipack.core.levels.degraded_level3`).
    degraded: bool = False
    #: Recovery trails of every supervised site that misbehaved.
    recovery: Tuple[RecoveryTrail, ...] = ()
    #: Unreadable cache entries encountered (evicted and recomputed).
    cache_corrupt: int = 0
    #: Per-kernel solver counters this evaluation accumulated (the
    #: :mod:`avipack.perf` registry delta, shipped across the process
    #: boundary and aggregated into the sweep report).
    perf: Tuple[SolveStats, ...] = ()

    @property
    def thermal_headroom_c(self) -> float:
        """Board-limit margin [°C]; larger is cooler."""
        return AUDIT_BOARD_LIMIT_C - self.worst_board_c

    @property
    def recovered(self) -> bool:
        """True when a supervised site recovered at full fidelity."""
        return any(trail.recovered for trail in self.recovery)


@dataclass(frozen=True)
class CandidateFailure:
    """A candidate that could not be evaluated — isolated, not fatal."""

    index: int
    candidate: Candidate
    fingerprint: str
    stage: str
    error_type: str
    message: str
    elapsed_s: float
    worker_pid: int

    #: Failures never comply; mirrors :class:`CandidateResult` so report
    #: code can treat outcomes uniformly.
    compliant: bool = False

    #: Formatted traceback of the original exception (empty for
    #: synthesised failures such as watchdog timeouts).
    traceback: str = ""

    #: Structured exception attributes (iterations, residual,
    #: limit_name, violations, ...) that survive process boundaries.
    details: Dict[str, object] = field(default_factory=dict)

    #: Recovery trails recorded before the evaluation finally failed.
    recovery: Tuple[RecoveryTrail, ...] = ()

    #: Mirrors :class:`CandidateResult` so report code can treat
    #: outcomes uniformly.
    degraded: bool = False

    #: Solver counters accumulated before the evaluation failed.
    perf: Tuple[SolveStats, ...] = ()


CandidateOutcome = Union[CandidateResult, CandidateFailure]


def _cost_rank(candidate: Candidate) -> float:
    """Installation-cost proxy: cooling complexity, then TIM exoticism."""
    technique = candidate.cooling
    if not isinstance(technique, CoolingTechnique):
        try:
            technique = CoolingTechnique(technique)
        except ValueError:
            return float("inf")
    rank = float(_TECHNIQUE_COST_RANK[technique]) * 10.0
    if candidate.tim_name.startswith("nanopack"):
        rank += 1.0
    return rank


def _exception_details(exc: BaseException) -> Dict[str, object]:
    """Lift the library's structured exception attributes into a dict."""
    details: Dict[str, object] = {}
    for name in _DETAIL_ATTRS:
        value = getattr(exc, name, None)
        if value is not None:
            details[name] = value
    return details


def evaluate_candidate(task: SweepTask, cache: Optional[SolverCache] = None
                       ) -> CandidateOutcome:
    """Evaluate one :class:`SweepTask`.

    Module-level (hence picklable) worker entry point shared by the
    serial and process-pool paths.  ``cache`` overrides the per-process
    default chosen by :func:`~avipack.sweep.cache.resolve_cache`: the
    process's :func:`~avipack.sweep.cache.worker_cache` singleton.  Every
    expected failure mode — bad input, specification violations, solver
    non-convergence, out-of-range models, injected faults — is converted
    into a :class:`CandidateFailure` carrying the stage, message,
    formatted traceback and structured exception attributes.

    The evaluation runs under an :class:`avipack.resilience.Supervisor`
    built from the task's ``policy`` (default :class:`SupervisionPolicy`),
    and the task's optional :class:`~avipack.resilience.FaultPlan` is
    installed process-wide before anything else runs, scoped to the
    candidate index so injection decisions are identical in serial and
    parallel executions.
    """
    index, candidate = task.index, task.candidate
    injector = _faults.configure(task.faults)
    cache = resolve_cache(task.use_cache, cache)
    hits0 = cache.hits if cache else 0
    misses0 = cache.misses if cache else 0
    corrupt0 = cache.corrupt if cache else 0
    perf_before = _perf.snapshot()
    supervisor = Supervisor(task.policy)
    scope = (injector.scoped(index) if injector is not None
             else contextlib.nullcontext())
    start = time.perf_counter()
    stage = "worker"
    with scope:
        try:
            _faults.fire("sweep.worker")
            stage = "build"
            rack, spec = candidate.build()
            stage = "evaluate"
            review = run_design_procedure(rack, spec, cache=cache,
                                          supervisor=supervisor)
        except Exception as exc:
            return CandidateFailure(
                index=index,
                candidate=candidate,
                fingerprint=candidate.fingerprint,
                stage=stage,
                error_type=type(exc).__name__,
                message=str(exc),
                elapsed_s=time.perf_counter() - start,
                worker_pid=os.getpid(),
                traceback=traceback.format_exc(),
                details=_exception_details(exc),
                recovery=supervisor.trails,
                perf=_perf.delta_since(perf_before),
            )
    level1 = review.thermal.level1
    declared = candidate.cooling
    if not isinstance(declared, CoolingTechnique):
        declared = CoolingTechnique(declared)
    return CandidateResult(
        index=index,
        candidate=candidate,
        fingerprint=candidate.fingerprint,
        compliant=review.compliant,
        violations=review.violations,
        margins=summarize_margins(review),
        worst_board_c=review.thermal.level2.worst_board_temperature - 273.15,
        recommended_cooling=(level1.recommended.value
                             if level1.recommended else None),
        declared_cooling_feasible=declared in level1.feasible_techniques,
        cost_rank=_cost_rank(candidate),
        elapsed_s=time.perf_counter() - start,
        worker_pid=os.getpid(),
        cache_hits=(cache.hits - hits0) if cache else 0,
        cache_misses=(cache.misses - misses0) if cache else 0,
        degraded=review.thermal.degraded,
        recovery=supervisor.trails,
        cache_corrupt=(cache.corrupt - corrupt0) if cache else 0,
        perf=_perf.delta_since(perf_before),
    )


def _evaluate_chunk(evaluator, chunk: List[SweepTask]
                    ) -> List[CandidateOutcome]:
    """Pool-worker entry point: evaluate a run of tasks in order."""
    return [evaluator(task) for task in chunk]


def _watchdog_failure(task: SweepTask, timeout_s: float) -> CandidateFailure:
    """Synthesised failure for a candidate whose worker stopped responding."""
    return CandidateFailure(
        index=task.index,
        candidate=task.candidate,
        fingerprint=task.candidate.fingerprint,
        stage="watchdog",
        error_type="WatchdogTimeout",
        message=(f"candidate exceeded the {timeout_s:g} s per-candidate "
                 "watchdog; worker abandoned"),
        elapsed_s=timeout_s,
        worker_pid=0,
    )


def _candidate_list(space: Union[DesignSpace, Iterable[Candidate]]
                    ) -> List[Candidate]:
    candidates = (list(space.grid()) if isinstance(space, DesignSpace)
                  else list(space))
    if not candidates:
        raise InputError("sweep needs at least one candidate")
    return candidates


class SweepRunner:
    """Run a design space (or explicit candidate list) to a report.

    :meth:`run` and :meth:`resume` share one campaign path: the pending
    candidates become :class:`SweepTask` records, go down one execution
    route (serial, or a process pool with a serial retry of whatever
    the pool left unfinished), and every outcome passes through
    one record step — journal, then result store, then ``progress`` —
    exactly once per candidate.

    Parameters
    ----------
    max_workers:
        Process-pool size.  ``0`` or ``1`` selects the serial path;
        ``None`` uses ``os.cpu_count()`` capped at 8.
    parallel:
        Master switch; ``False`` forces the serial path regardless of
        ``max_workers``.
    use_cache:
        Enable solver memoisation (per worker in parallel mode, one
        cache per run in serial mode).  Disable for cold baselines.
    timeout_s:
        Per-candidate watchdog [s] for the parallel path.  ``None``
        (default) sends candidates to the pool in chunks of
        ``ceil(n / (4 * workers))`` with no deadline.  When set,
        candidates go out one at a time, at most one per live worker,
        and a candidate whose worker produces nothing within the budget
        is recorded as a ``WatchdogTimeout`` :class:`CandidateFailure`;
        the stuck worker is abandoned (the pool keeps running at reduced
        width until it comes back).
    policy:
        :class:`~avipack.resilience.SupervisionPolicy` applied to every
        candidate evaluation; ``None`` uses the default policy.  Pass
        :data:`~avipack.resilience.NO_SUPERVISION` to disable retries
        and degradation.
    faults:
        Optional seeded :class:`~avipack.resilience.FaultPlan` threaded
        into every worker — the chaos hook the fault-injection suite
        drives.  Injection decisions are scoped per candidate index, so
        a serial and a parallel run of the same plan fault identically.
    evaluator:
        Picklable replacement for :func:`evaluate_candidate` (custom
        workloads on the sweep infrastructure — e.g. supervised raw
        network solves).  It is called with one :class:`SweepTask` and
        must return a :class:`CandidateResult` or
        :class:`CandidateFailure`.  :meth:`resume` audits its journalled
        results against the design procedure's invariants, so a result
        that does not reproduce the level-2 airflow solve is recomputed.
    result_store:
        Directory for a columnar
        :class:`~avipack.results.store.ResultStoreWriter`: every
        outcome becomes a row as it arrives (after journalling, when
        both are enabled); rows are published as a checksummed,
        memory-mapped shard when a shard fills
        (:data:`~avipack.results.store.DEFAULT_SHARD_ROWS`, 65,536
        rows) or when the run ends, so ranking and report analytics
        run zero-unpickle afterwards.  On
        :meth:`resume`, outcomes restored from the journal that the
        store does not yet hold are backfilled, keeping store and
        report in lockstep.  ``None`` (default) keeps results
        in-memory only.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 parallel: bool = True, use_cache: bool = True,
                 timeout_s: Optional[float] = None,
                 policy: Optional[SupervisionPolicy] = None,
                 faults: Optional[FaultPlan] = None,
                 evaluator=None,
                 result_store: Optional[str] = None) -> None:
        if max_workers is not None and max_workers < 0:
            raise InputError("max_workers must be >= 0")
        if timeout_s is not None and timeout_s <= 0.0:
            raise InputError("timeout_s must be positive")
        self.max_workers = max_workers
        self.parallel = parallel
        self.use_cache = use_cache
        self.timeout_s = timeout_s
        self.policy = policy
        self.faults = faults
        self.evaluator = evaluator if evaluator is not None \
            else evaluate_candidate
        self.result_store = result_store

    def _resolve_workers(self) -> int:
        if self.max_workers is not None:
            return self.max_workers
        return min(os.cpu_count() or 1, 8)

    # -- execution -----------------------------------------------------------

    def _run_serial(self, tasks: List[SweepTask], record) -> None:
        """In-process run (serial mode or pool retry) with one cache."""
        cache = resolve_cache(self.use_cache, fresh=True)
        for task in tasks:
            record(self.evaluator(task, cache)
                   if self.evaluator is evaluate_candidate
                   else self.evaluator(task))

    def _run_pool(self, tasks: List[SweepTask], workers: int, record
                  ) -> Tuple[str, List[SweepTask]]:
        """Windowed dispatch over a process pool.

        Without ``timeout_s`` every chunk of ``ceil(n / (4 * workers))``
        tasks is submitted at once, with no deadline.  With it, single
        tasks go out, at most one per live worker, so ``timeout_s``
        after submission is an honest per-candidate deadline: a task
        that misses it is recorded as a watchdog failure and its worker
        abandoned (capacity shrinks until the worker comes back); one
        that never started goes back to the queue.  A broken pool stops
        dispatch.  Outcomes are recorded as they arrive.

        Returns the mode and the tasks left unfinished, which the
        caller retries serially.
        """
        timeout_s = self.timeout_s
        size = (1 if timeout_s is not None
                else -(-len(tasks) // (4 * workers)))
        queue = deque(tasks[i:i + size] for i in range(0, len(tasks), size))
        capacity = workers if timeout_s is not None else len(queue)
        in_flight: Dict[object, Tuple[List[SweepTask], float]] = {}
        abandoned: set = set()
        finished: set = set()
        incidents: List[str] = []
        failure: List[BaseException] = []

        def collect(future) -> None:
            try:
                outcomes = future.result()
            except Exception as exc:
                failure.append(exc)
                return
            for outcome in outcomes:
                finished.add(outcome.index)
                record(outcome)

        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except OSError as exc:
            return f"serial (pool fallback: {type(exc).__name__})", tasks
        try:
            while (queue or in_flight) and not failure:
                while queue and len(in_flight) < capacity:
                    try:
                        future = pool.submit(_evaluate_chunk, self.evaluator,
                                             queue[0])
                    except Exception as exc:
                        failure.append(exc)
                        break
                    in_flight[future] = (queue.popleft(), time.monotonic()
                                         + (timeout_s or math.inf))
                if failure:
                    break
                if not in_flight:
                    # Every worker is stuck: no parallel capacity left.
                    incidents.append(f"pool exhausted by {len(abandoned)} "
                                     "hung workers")
                    failure.append(BrokenProcessPool())
                    break
                deadline = min(d for _, d in in_flight.values())
                done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED,
                               timeout=(None if deadline == math.inf else
                                        max(0.0, deadline - time.monotonic())))
                for future in done:
                    del in_flight[future]
                    collect(future)
                now = time.monotonic()
                for future, (chunk, deadline) in list(in_flight.items()):
                    if deadline > now or future.done():
                        continue
                    del in_flight[future]
                    if future.cancel():
                        # Never started (queued behind a stall): back to
                        # the queue with a fresh deadline.
                        queue.appendleft(chunk)
                        continue
                    abandoned.add(future)
                    capacity -= 1
                    for task in chunk:
                        incidents.append(f"watchdog abandoned #{task.index}")
                        finished.add(task.index)
                        record(_watchdog_failure(task, timeout_s))
                for future in [f for f in abandoned if f.done()]:
                    # The stuck worker came back; its (late) result is
                    # discarded but its slot is usable again.
                    abandoned.discard(future)
                    capacity += 1
            for future in in_flight:
                if future.done():
                    collect(future)
        finally:
            pool.shutdown(wait=not (abandoned or in_flight),
                          cancel_futures=True)
        unfinished = [task for task in tasks if task.index not in finished]
        infrastructure = [exc for exc in failure
                          if not isinstance(exc, BrokenProcessPool)]
        if infrastructure:
            # The pool could not carry a task or an outcome (pickling).
            name = type(infrastructure[0]).__name__
            return f"serial (pool fallback: {name})", unfinished
        if failure:
            incidents.append("broken pool: serial retry of unfinished "
                             "candidates")
        if incidents:
            return (f"parallel ({'; '.join(sorted(set(incidents)))})",
                    unfinished)
        return "parallel", unfinished

    def _execute(self, tasks: List[SweepTask], record) -> Tuple[str, int]:
        """Run tasks down the configured route; returns mode and width.

        ``record`` receives every outcome once, the moment the main
        process holds it.  Task indices need not be contiguous (a
        resume dispatches only the unfinished subset).
        """
        workers = self._resolve_workers()
        mode = "serial"
        try:
            if self.parallel and workers > 1 and len(tasks) > 1:
                mode, tasks = self._run_pool(tasks, workers, record)
            if tasks:
                self._run_serial(tasks, record)
        finally:
            # A serial (re-)run in this process may have installed the
            # fault plan here; never leak it into subsequent user code.
            if self.faults is not None:
                _faults.uninstall()
        return mode, workers if mode.startswith("parallel") else 1

    # -- campaign ------------------------------------------------------------

    def _campaign(self, candidates: List[Candidate], journal, progress,
                  restored: Optional[Dict[str, CandidateOutcome]],
                  durability: Optional[DurabilityStats]) -> SweepReport:
        """The one campaign body behind :meth:`run` and :meth:`resume`.

        Dispatches every candidate without a ``restored`` outcome
        (matched by fingerprint; ``None`` on a fresh run), records each
        fresh outcome (journal, then store, then ``progress``), merges
        restored and fresh outcomes in candidate order, backfills
        restored outcomes the store has never seen, and assembles the
        report.  Closes ``journal``.
        """
        start = time.perf_counter()
        resuming = restored is not None
        restored = restored or {}
        pending = [SweepTask(index, candidate, self.use_cache, self.policy,
                             self.faults)
                   for index, candidate in enumerate(candidates)
                   if candidate.fingerprint not in restored]
        fresh: Dict[int, CandidateOutcome] = {}
        store = stored = None
        try:
            if self.result_store is not None:
                from ..results.store import ResultStore, ResultStoreWriter
                # Read before this campaign appends, so the backfill
                # adds each restored outcome at most once across
                # repeated resumes.
                stored = (ResultStore.live_fingerprints(self.result_store)
                          if restored else set())
                store = ResultStoreWriter(self.result_store)

            def record(outcome: CandidateOutcome) -> None:
                if journal is not None:
                    journal.record_outcome(outcome)
                if store is not None:
                    store.add(outcome)
                fresh[outcome.index] = outcome
                if progress is not None:
                    progress(outcome)

            # A fresh run always has pending candidates.
            mode, workers = "resume", 1
            if pending:
                mode, workers = self._execute(pending, record)
                if resuming:
                    mode = f"resume ({mode})"
            merged: List[CandidateOutcome] = []
            for index, candidate in enumerate(candidates):
                outcome = fresh.get(index)
                if outcome is None:
                    outcome = restored[candidate.fingerprint]
                    if outcome.index != index:
                        outcome = dataclasses.replace(outcome, index=index)
                    if (store is not None
                            and outcome.fingerprint not in stored
                            and outcome.fingerprint
                            not in store.added_fingerprints):
                        store.add(outcome)
                merged.append(outcome)
        finally:
            if journal is not None:
                journal.close()
            if store is not None:
                store.close()
        wall = time.perf_counter() - start
        if durability is not None:
            durability = dataclasses.replace(
                durability, n_resumed=len(candidates) - len(pending),
                n_recomputed=len(pending))
        return self._assemble(merged, wall, mode, workers, durability,
                              store.stats() if store is not None else None)

    def _assemble(self, outcomes: List[CandidateOutcome], wall: float,
                  mode: str, workers: int,
                  durability: Optional[DurabilityStats] = None,
                  store_stats=None) -> SweepReport:
        hits = sum(o.cache_hits for o in outcomes
                   if isinstance(o, CandidateResult))
        misses = sum(o.cache_misses for o in outcomes
                     if isinstance(o, CandidateResult))
        corrupt = sum(o.cache_corrupt for o in outcomes
                      if isinstance(o, CandidateResult))
        limit = DEFAULT_WORKER_CACHE_MAX_ENTRIES if self.use_cache else None
        cache_stats = CacheStats(hits=hits, misses=misses, entries=misses,
                                 corrupt=corrupt, max_entries=limit)
        perf_records = _perf.aggregate(
            getattr(o, "perf", ()) for o in outcomes)
        return SweepReport(
            outcomes=tuple(outcomes),
            wall_time_s=wall,
            mode=mode,
            workers=workers,
            cache=cache_stats,
            perf=perf_records,
            durability=durability,
            result_store=store_stats,
        )

    def run(self, space: Union[DesignSpace, Iterable[Candidate]],
            journal_path: Optional[str] = None,
            progress=None) -> SweepReport:
        """Evaluate every candidate and assemble a :class:`SweepReport`.

        Candidate order is preserved in the outcome list whichever
        execution path runs.  If the process pool cannot be used (no
        ``fork``/``spawn`` support, unpicklable candidates or
        evaluator), the sweep transparently falls back to the serial
        path rather than failing; a pool broken *mid-flight* (worker
        crash) triggers a serial retry of only the unfinished
        candidates, so one bad worker never costs the campaign.

        With ``journal_path`` the sweep additionally writes a
        write-ahead journal (:class:`~avipack.durability.SweepJournal`):
        the candidate plan first, then every outcome as it arrives,
        each record checksummed and fsync'd — if the process dies
        (SIGKILL, OOM, power loss), :meth:`resume` continues the
        campaign from the journal, recomputing only the candidates the
        journal cannot prove finished.

        ``progress`` is an optional callable invoked with each
        :data:`CandidateOutcome` in the main process the moment it is
        held (and, when journalling, durably journalled) — the
        streaming-telemetry hook the sweep service builds on.  An
        exception raised by ``progress`` aborts the sweep at the next
        outcome boundary; everything already journalled stays intact
        and resumable (cooperative cancellation).
        """
        candidates = _candidate_list(space)
        journal = durability = None
        if journal_path is not None:
            from ..durability.journal import SweepJournal
            from ..fingerprint import stable_fingerprint
            journal = SweepJournal.create(
                journal_path, tuple(candidates),
                space_fingerprint=stable_fingerprint(tuple(candidates)))
            durability = DurabilityStats(journal_path=journal_path)
        return self._campaign(candidates, journal, progress, None,
                              durability)

    def resume(self, journal_path: str,
               space: Union[DesignSpace, Iterable[Candidate], None] = None,
               progress=None) -> SweepReport:
        """Continue a journalled sweep after a crash (or completion).

        ``progress`` mirrors :meth:`run`: it fires for every outcome
        *recomputed* by this resume (restored outcomes are already
        durable and are not replayed through the callback).

        Replays the journal (:func:`~avipack.durability.replay_journal`
        — damaged records are quarantined to the ``.quarantine``
        sidecar, never trusted and never fatal), audits every restored
        outcome against the invariant battery in
        :mod:`avipack.durability.audit`, and recomputes whatever is
        left: candidates that were in flight at the crash, candidates
        whose records were quarantined, and restored records the audit
        rejected.  Restored outcomes keep their original metric values,
        so the resumed report ranks identically to an uninterrupted
        run.

        Candidates are matched by content fingerprint, not list index,
        so the resume also survives a re-ordered or extended candidate
        set passed via ``space``; without ``space``, the candidate list
        is taken from the journal's own plan record.  New work is
        appended to the same journal (a resumed run can itself be
        resumed).  Raises :class:`~avipack.errors.JournalError` only
        when the journal is unreadable or carries no usable plan.
        """
        from ..durability.audit import audit_outcomes
        from ..durability.journal import SweepJournal, replay_journal
        from ..fingerprint import stable_fingerprint
        replay = replay_journal(journal_path)
        if space is not None:
            candidates = _candidate_list(space)
        elif replay.candidates is not None:
            candidates = _candidate_list(replay.candidates)
        else:
            raise JournalError(
                f"journal {journal_path} has no intact plan record; "
                "pass the candidate space to resume() explicitly")
        restored = dict(replay.outcomes)
        flagged = audit_outcomes(restored.values())
        for fingerprint in flagged:
            restored.pop(fingerprint, None)
        journal = SweepJournal.append_to(journal_path,
                                         next_seq=replay.next_seq)
        if space is not None:
            try:
                journal.record_plan(
                    tuple(candidates),
                    space_fingerprint=stable_fingerprint(tuple(candidates)))
            except BaseException:
                journal.close()
                raise
        durability = DurabilityStats(
            journal_path=journal_path,
            n_quarantined=replay.n_quarantined,
            n_audit_failures=len(flagged),
            audit_issues=tuple(sorted(flagged.items())),
        )
        return self._campaign(candidates, journal, progress, restored,
                              durability)
