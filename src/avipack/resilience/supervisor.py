"""The supervision engine: retries, escalation ladders, degradation.

:class:`Supervisor` wraps iterative solver call sites with the
campaign's :class:`~avipack.resilience.policy.SupervisionPolicy` and
collects a :class:`~avipack.resilience.policy.RecoveryTrail` for every
site that misbehaved.  Two entry points cover the library's call
shapes:

* :meth:`Supervisor.call` — generic retry-then-degrade around any
  zero-argument callable (the level runners of the Fig. 4 pyramid);
* :func:`solve_network` — the escalation ladder for
  :meth:`avipack.thermal.network.ThermalNetwork.solve`: each failed
  attempt escalates to stronger relaxation and a larger iteration
  budget, warm-started from the failed attempt's last iterate.

The module deliberately imports nothing from the numerical packages —
networks are duck-typed through their ``solve`` method — so any layer
can depend on it without cycles.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple, Type

from ..errors import AvipackError, ConvergenceError
from .policy import (
    DEFAULT_NETWORK_ESCALATION,
    AttemptRecord,
    EscalationStep,
    RecoveryTrail,
    SupervisionPolicy,
)

__all__ = ["Supervisor", "solve_network"]


class Supervisor:
    """Runs supervised call sites and accumulates recovery trails.

    One supervisor lives per evaluation (per sweep candidate); its
    trails travel back to the parent attached to the candidate's
    result, so the sweep report can show exactly what was retried,
    escalated or degraded.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self._trails: List[RecoveryTrail] = []

    @property
    def trails(self) -> Tuple[RecoveryTrail, ...]:
        """Every recovery trail recorded so far, in occurrence order."""
        return tuple(self._trails)

    def record(self, trail: RecoveryTrail) -> None:
        """Append a trail (used by :func:`solve_network` and helpers)."""
        self._trails.append(trail)

    def call(self, site: str, fn: Callable[[], object],
             retry_on: Tuple[Type[BaseException], ...] = (ConvergenceError,),
             fallback: Optional[Callable[[BaseException], object]] = None,
             fallback_label: str = "degrade") -> object:
        """Run ``fn`` under the policy's retry budget.

        Exceptions in ``retry_on`` consume retries; any other
        :class:`~avipack.errors.AvipackError` skips straight to the
        ``fallback`` (when given) — that is the level-3 "component
        failure degrades to level-2 fidelity" path.  Exceptions outside
        the :class:`AvipackError` family propagate untouched (they are
        bugs, not recoverable solver behaviour).  Whatever happens
        beyond a clean first attempt is recorded as a
        :class:`RecoveryTrail`.
        """
        attempts: List[AttemptRecord] = []
        last_exc: Optional[BaseException] = None
        for attempt in range(self.policy.max_retries + 1):
            action = "call" if attempt == 0 else f"retry#{attempt}"
            start = time.perf_counter()
            try:
                value = fn()
            except retry_on as exc:
                last_exc = exc
                attempts.append(AttemptRecord(
                    attempt, action, "failed", type(exc).__name__,
                    str(exc), time.perf_counter() - start))
                continue
            except AvipackError as exc:
                last_exc = exc
                attempts.append(AttemptRecord(
                    attempt, action, "failed", type(exc).__name__,
                    str(exc), time.perf_counter() - start))
                break
            attempts.append(AttemptRecord(
                attempt, action, "ok",
                elapsed_s=time.perf_counter() - start))
            if attempt > 0:
                self.record(RecoveryTrail(site, tuple(attempts),
                                          recovered=True, degraded=False))
            return value

        if fallback is not None:
            start = time.perf_counter()
            try:
                value = fallback(last_exc)
            except AvipackError as exc:
                last_exc = exc
                attempts.append(AttemptRecord(
                    len(attempts), fallback_label, "failed",
                    type(exc).__name__, str(exc),
                    time.perf_counter() - start))
            else:
                attempts.append(AttemptRecord(
                    len(attempts), fallback_label, "ok",
                    elapsed_s=time.perf_counter() - start))
                self.record(RecoveryTrail(site, tuple(attempts),
                                          recovered=False, degraded=True))
                return value

        self.record(RecoveryTrail(site, tuple(attempts),
                                  recovered=False, degraded=False))
        assert last_exc is not None
        raise last_exc

    def solve_network(self, network, **solve_kwargs):
        """Escalated network solve under this supervisor's policy ladder."""
        return solve_network(network,
                             escalation=self.policy.network_escalation,
                             supervisor=self, **solve_kwargs)


def solve_network(network,
                  escalation: Tuple[EscalationStep, ...] =
                  DEFAULT_NETWORK_ESCALATION,
                  supervisor: Optional[Supervisor] = None,
                  site: str = "thermal.network.solve",
                  **solve_kwargs):
    """Solve a thermal network, escalating through ``escalation`` rungs.

    Every rung scales the caller's baseline ``relaxation`` /
    ``max_iterations`` and optionally warm-starts from the previous
    attempt's last iterate (carried on
    :attr:`~avipack.errors.ConvergenceError.last_iterate`).  On
    success the :class:`~avipack.thermal.network.NetworkSolution` is
    returned; when every rung fails the final
    :class:`~avipack.errors.ConvergenceError` propagates.  If a
    ``supervisor`` is given and anything beyond a clean first attempt
    happened, the trail is recorded on it.

    ``network`` is duck-typed: any object whose ``solve`` accepts the
    :class:`~avipack.thermal.network.ThermalNetwork` keyword set works.
    """
    base_relaxation = float(solve_kwargs.pop("relaxation", 0.7))
    base_iterations = int(solve_kwargs.pop("max_iterations", 200))
    warm_start = solve_kwargs.pop("initial_temperatures", None)
    attempts: List[AttemptRecord] = []
    last_exc: Optional[ConvergenceError] = None
    for rung, step in enumerate(escalation):
        call_kwargs = dict(solve_kwargs)
        call_kwargs["relaxation"] = min(
            1.0, max(1e-3, base_relaxation * step.relaxation_scale))
        call_kwargs["max_iterations"] = max(
            1, int(round(base_iterations * step.iteration_scale)))
        warmed = step.warm_start and warm_start is not None
        if warmed:
            call_kwargs["initial_temperatures"] = warm_start
        action = (f"{step.name}(relaxation={call_kwargs['relaxation']:g}, "
                  f"max_iterations={call_kwargs['max_iterations']}"
                  f"{', warm-start' if warmed else ''})")
        start = time.perf_counter()
        try:
            solution = network.solve(**call_kwargs)
        except ConvergenceError as exc:
            last_exc = exc
            if exc.last_iterate:
                warm_start = exc.last_iterate
            attempts.append(AttemptRecord(
                rung, action, "failed", type(exc).__name__, str(exc),
                time.perf_counter() - start))
            continue
        attempts.append(AttemptRecord(
            rung, action, "ok", elapsed_s=time.perf_counter() - start))
        if rung > 0 and supervisor is not None:
            supervisor.record(RecoveryTrail(site, tuple(attempts),
                                            recovered=True,
                                            degraded=False))
        return solution
    if supervisor is not None:
        supervisor.record(RecoveryTrail(site, tuple(attempts),
                                        recovered=False, degraded=False))
    assert last_exc is not None
    raise last_exc
