"""Batch-capable sweep evaluator over raw thermal networks.

:class:`NetworkSweepEvaluator` plugs a *network-level* workload into the
sweep infrastructure (journaling, failure isolation, caching,
reporting) and — unlike the generic design-procedure evaluator — knows
how to evaluate many candidates *at once*: it declares
``supports_batch`` and provides :meth:`~NetworkSweepEvaluator.
evaluate_batch`, which :class:`~avipack.sweep.runner.SweepRunner`
routes whole task lists through.  Internally the candidates' networks
are handed to :func:`avipack.thermal.batch.solve_batched`, which groups
them by structural fingerprint and advances each topology group as one
vectorized system (stacked assembly, shared LU factorizations,
multi-RHS solves, masked fixed-point iteration).

Cache semantics match the scalar path exactly: each candidate's solve
is keyed with the same fingerprint key
:meth:`avipack.thermal.network.ThermalNetwork.solve` uses with a
``cache=`` argument, so batch-path and scalar-path runs share entries —
a candidate solved by one path is a cache hit for the other.

The evaluator is a plain picklable object, so the same instance also
works on the process-pool paths (where it is called per task and solves
scalar, one candidate per worker).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
import traceback
from typing import Callable, List, Optional, Tuple

from .. import perf as _perf
from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..resilience import faults as _faults
from ..thermal.batch import DEFAULT_MIN_BATCH, BatchOutcome, solve_batched
from ..thermal.network import NetworkSolution, ThermalNetwork
from .cache import resolve_cache
from .runner import (
    CandidateFailure,
    CandidateOutcome,
    CandidateResult,
    SweepTask,
    _cost_rank,
    _exception_details,
)

__all__ = ["NetworkSweepEvaluator"]

#: Sentinel distinguishing "cache probe found nothing" from any value.
_MISS = object()


class NetworkSweepEvaluator:
    """Evaluate sweep candidates as raw thermal-network solves.

    Parameters
    ----------
    build_network:
        Picklable callable ``(candidate) -> ThermalNetwork`` realising
        one design point into the network to solve.  Build failures
        become per-candidate :class:`~avipack.sweep.runner.
        CandidateFailure` records, never an aborted sweep.
    board_limit_c:
        Compliance limit on the hottest *free* node [°C]; candidates
        above it are recorded non-compliant with a structured
        violation.
    initial_guess, max_iterations, tolerance, relaxation:
        Solver settings, forwarded identically to the scalar and the
        batched path (the parity contract depends on it).
    min_batch:
        Smallest topology group worth vectorizing; smaller groups take
        the scalar path inside :func:`~avipack.thermal.batch.
        solve_batched`.

    Notes
    -----
    When used as a plain per-task evaluator (``__call__``), behaviour
    matches the sweep's custom-evaluator protocol: one candidate per
    call, scalar solve, cache honoured.  When the runner batches
    (:meth:`evaluate_batch`), outcomes additionally carry
    ``batched=True`` for every candidate the vectorized path answered.
    """

    #: SweepRunner routes task lists through :meth:`evaluate_batch`
    #: when this attribute is truthy (and ``batch`` is not disabled).
    supports_batch = True

    def __init__(self, build_network: Callable[..., ThermalNetwork], *,
                 board_limit_c: float = 85.0,
                 initial_guess: float = 320.0, max_iterations: int = 200,
                 tolerance: float = 1e-8, relaxation: float = 0.7,
                 min_batch: int = DEFAULT_MIN_BATCH) -> None:
        if not callable(build_network):
            raise InputError("build_network must be callable")
        if not 0.0 < relaxation <= 1.0:
            raise InputError("relaxation must be in (0, 1]")
        self.build_network = build_network
        self.board_limit_c = float(board_limit_c)
        self.initial_guess = float(initial_guess)
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)
        self.relaxation = float(relaxation)
        self.min_batch = int(min_batch)

    # -- cache key (shared with ThermalNetwork.solve) -----------------------

    def _solve_key(self, network: ThermalNetwork) -> str:
        """The exact memo key ``network.solve(cache=...)`` would use."""
        return stable_fingerprint(
            "network_solve", network.fingerprint(), self.initial_guess,
            self.max_iterations, self.tolerance, self.relaxation, None)

    # -- outcome builders ----------------------------------------------------

    def _result(self, index: int, candidate, solution: NetworkSolution,
                network: ThermalNetwork, elapsed_s: float,
                cache_hits: int, cache_misses: int,
                perf: Tuple = (), batched: bool = False
                ) -> CandidateResult:
        free = [name for name in network.node_names
                if network.node_fixed_temperature(name) is None]
        worst_c = (max(solution.temperatures[name] for name in free)
                   - 273.15 if free else -273.15)
        violations: Tuple[str, ...] = ()
        if worst_c > self.board_limit_c:
            violations = (
                f"hottest free node {worst_c:.1f} degC exceeds the "
                f"{self.board_limit_c:g} degC board limit",)
        return CandidateResult(
            index=index,
            candidate=candidate,
            fingerprint=candidate.fingerprint,
            compliant=not violations,
            violations=violations,
            margins={"network_board_margin_c":
                     self.board_limit_c - worst_c},
            worst_board_c=worst_c,
            recommended_cooling=None,
            declared_cooling_feasible=True,
            cost_rank=_cost_rank(candidate),
            elapsed_s=elapsed_s,
            worker_pid=os.getpid(),
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            perf=perf,
            batched=batched,
        )

    def _failure(self, index: int, candidate, stage: str,
                 exc: BaseException, elapsed_s: float,
                 perf: Tuple = ()) -> CandidateFailure:
        return CandidateFailure(
            index=index,
            candidate=candidate,
            fingerprint=candidate.fingerprint,
            stage=stage,
            error_type=type(exc).__name__,
            message=str(exc),
            elapsed_s=elapsed_s,
            worker_pid=os.getpid(),
            traceback="".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            details=_exception_details(exc),
            perf=perf,
        )

    # -- scalar protocol (process-pool workers, forced-scalar runs) ---------

    def __call__(self, task: SweepTask, cache=None) -> CandidateOutcome:
        """Evaluate one task, scalar — the classic protocol."""
        index, candidate = task.index, task.candidate
        injector = _faults.configure(task.faults)
        cache = resolve_cache(task.use_cache, task.cache_dir, cache)
        hits0 = cache.hits if cache else 0
        misses0 = cache.misses if cache else 0
        perf_before = _perf.snapshot()
        start = time.perf_counter()
        scope = (injector.scoped(index) if injector is not None
                 else contextlib.nullcontext())
        with scope:
            try:
                _faults.fire("sweep.worker")
                stage = "build"
                network = self.build_network(candidate)
                stage = "solve"
                solution = network.solve(
                    initial_guess=self.initial_guess,
                    max_iterations=self.max_iterations,
                    tolerance=self.tolerance, relaxation=self.relaxation,
                    cache=cache)
            except Exception as exc:
                return self._failure(index, candidate, stage, exc,
                                     time.perf_counter() - start,
                                     _perf.delta_since(perf_before))
        return self._result(
            index, candidate, solution, network,
            time.perf_counter() - start,
            (cache.hits - hits0) if cache else 0,
            (cache.misses - misses0) if cache else 0,
            _perf.delta_since(perf_before))

    # -- batched protocol ----------------------------------------------------

    def evaluate_batch(self, tasks: List[SweepTask],
                       cache=None) -> List[CandidateOutcome]:
        """Evaluate a whole task list through the batched solver core.

        Candidates are built, probed against the cache under the scalar
        solve key, and everything unanswered is handed to
        :func:`~avipack.thermal.batch.solve_batched` in one call —
        topology grouping, shared factorizations and convergence
        masking happen there.  Per-candidate failure isolation is
        unchanged: build errors, negative callables, non-convergence
        and invalid networks come back as structured
        :class:`~avipack.sweep.runner.CandidateFailure` records in
        candidate order.

        Solver counters accumulated by the whole batch are attached to
        the first solver-path outcome (the registry delta cannot be
        split per candidate once solves are vectorized); cache-hit
        outcomes carry none.
        """
        if not tasks:
            return []
        _faults.configure(tasks[0].faults)
        start = time.perf_counter()
        perf_before = _perf.snapshot()
        cache = resolve_cache(tasks[0].use_cache, tasks[0].cache_dir, cache)

        outcomes: List[Optional[CandidateOutcome]] = [None] * len(tasks)
        pending: List[int] = []          # positions awaiting a solve
        networks: List[ThermalNetwork] = []
        hit_count = 0
        for position, task in enumerate(tasks):
            index, candidate = task.index, task.candidate
            t0 = time.perf_counter()
            try:
                network = self.build_network(candidate)
            except Exception as exc:
                outcomes[position] = self._failure(
                    index, candidate, "build", exc,
                    time.perf_counter() - t0)
                continue
            if cache is not None:
                key = self._solve_key(network)
                found = (cache.get_or_compute(key, lambda: _MISS)
                         if key in cache else _MISS)
                if found is not _MISS:
                    hit_count += 1
                    outcomes[position] = self._result(
                        index, candidate, found, network,
                        time.perf_counter() - t0, cache_hits=1,
                        cache_misses=0, batched=False)
                    continue
            pending.append(position)
            networks.append(network)

        if networks:
            solved = solve_batched(
                networks, initial_guess=self.initial_guess,
                max_iterations=self.max_iterations,
                tolerance=self.tolerance, relaxation=self.relaxation,
                min_batch=self.min_batch)
            share = ((time.perf_counter() - start) / len(networks))
            for position, network, outcome in zip(pending, networks,
                                                  solved, strict=True):
                task = tasks[position]
                outcomes[position] = self._batch_outcome(
                    task.index, task.candidate, network, outcome, cache,
                    share)

        perf_delta = _perf.delta_since(perf_before)
        if perf_delta:
            for position in pending:
                outcome = outcomes[position]
                if isinstance(outcome, CandidateResult):
                    outcomes[position] = dataclasses.replace(
                        outcome, perf=perf_delta)
                    break
        return [outcome for outcome in outcomes if outcome is not None]

    def _batch_outcome(self, index: int, candidate,
                       network: ThermalNetwork, outcome: BatchOutcome,
                       cache, elapsed_s: float) -> CandidateOutcome:
        if outcome.error is not None:
            return self._failure(index, candidate, "solve",
                                 outcome.error, elapsed_s)
        solution = outcome.solution
        misses = 0
        if cache is not None:
            # Insert under the scalar solve key so a later scalar run
            # (or resume) of the same candidate hits; get_or_compute is
            # the store API and counts this as the one miss the scalar
            # first-solve would have counted.
            cache.get_or_compute(self._solve_key(network),
                                 lambda: solution)
            misses = 1
        return self._result(index, candidate, solution, network,
                            elapsed_s, cache_hits=0, cache_misses=misses,
                            batched=outcome.batched)
