"""The supervision engine: retry, then degrade.

:class:`Supervisor` wraps the iterative level runners of the Fig. 4
pyramid with the campaign's
:class:`~avipack.resilience.policy.SupervisionPolicy` and collects a
:class:`~avipack.resilience.policy.RecoveryTrail` for every site that
misbehaved.  :meth:`Supervisor.call` retries a transient
:class:`~avipack.errors.ConvergenceError` under the policy's retry
budget and, when a fallback is given, degrades a site that stays
broken (level 3 falls back to the level-2 boundary estimate).

The module deliberately imports nothing from the numerical packages,
so any layer can depend on it without cycles.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Tuple

from ..errors import AvipackError, ConvergenceError
from .policy import AttemptRecord, RecoveryTrail, SupervisionPolicy

__all__ = ["Supervisor"]

#: Label of the fallback attempt in a :class:`RecoveryTrail`.
DEGRADE_LABEL = "degrade-to-level2"


class Supervisor:
    """Runs supervised call sites and accumulates recovery trails.

    One supervisor lives per evaluation (per sweep candidate); its
    trails travel back to the parent attached to the candidate's
    result, so the sweep report can show exactly what was retried or
    degraded.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None) -> None:
        self.policy = policy if policy is not None else SupervisionPolicy()
        self._trails: List[RecoveryTrail] = []

    @property
    def trails(self) -> Tuple[RecoveryTrail, ...]:
        """Every recovery trail recorded so far, in occurrence order."""
        return tuple(self._trails)

    def call(self, site: str, fn: Callable[[], object],
             fallback: Optional[Callable[[BaseException], object]] = None
             ) -> object:
        """Run ``fn`` under the policy's retry budget.

        A :class:`~avipack.errors.ConvergenceError` consumes retries;
        any other :class:`~avipack.errors.AvipackError` skips straight
        to the ``fallback`` (when given) — that is the level-3
        "component failure degrades to level-2 fidelity" path.
        Exceptions outside the :class:`AvipackError` family propagate
        untouched (they are bugs, not recoverable solver behaviour).
        Whatever happens beyond a clean first attempt is recorded as a
        :class:`RecoveryTrail`.
        """
        attempts: List[AttemptRecord] = []
        last_exc: Optional[BaseException] = None
        for attempt in range(self.policy.max_retries + 1):
            action = "call" if attempt == 0 else f"retry#{attempt}"
            start = time.perf_counter()
            try:
                value = fn()
            except ConvergenceError as exc:
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
                self._trails.append(RecoveryTrail(
                    site, tuple(attempts), recovered=True, degraded=False))
            return value

        if fallback is not None:
            start = time.perf_counter()
            try:
                value = fallback(last_exc)
            except AvipackError as exc:
                last_exc = exc
                attempts.append(AttemptRecord(
                    len(attempts), DEGRADE_LABEL, "failed",
                    type(exc).__name__, str(exc),
                    time.perf_counter() - start))
            else:
                attempts.append(AttemptRecord(
                    len(attempts), DEGRADE_LABEL, "ok",
                    elapsed_s=time.perf_counter() - start))
                self._trails.append(RecoveryTrail(
                    site, tuple(attempts), recovered=False, degraded=True))
                return value

        self._trails.append(RecoveryTrail(site, tuple(attempts),
                                          recovered=False, degraded=False))
        assert last_exc is not None
        raise last_exc
