"""Deterministic, seeded fault injection at named solver sites.

The sweep engine's failure isolation should be *tested*, not assumed:
this module lets a chaos suite inject convergence failures, model-range
errors, worker-process crashes, hangs and corrupted cache entries at
named sites inside the production code paths, with decisions that are a
pure function of ``(seed, site, kind, scope)`` — so a serial and a
parallel run of the same plan fault the same candidates and rank the
same survivors.

Instrumented production sites call :func:`fire` with their site name
(``"levels.level2"``, ``"levels.level3[m2]"``, ``"sweep.worker"``,
``"sweep.cache"``).  With no plan installed the call is a no-op costing
one ``None`` check, so the instrumentation stays in release code.

The durability layer (:mod:`avipack.durability`) adds two
*data-corruption* sites probed through :func:`corrupts` with the
``"cache_corrupt"`` kind:

* ``"durability.journal_torn_write"`` — the journal truncates the
  record it is about to append (a power loss mid-``write``);
* ``"durability.journal_bitflip"`` — the journal flips one bit in the
  encoded record before appending it (storage bit rot).

At these sites the injected error never propagates: the site *performs*
the corruption so the recovery machinery — checksums and quarantine —
is exercised for real.

Determinism rules:

* A :class:`FaultSpec` matches every site whose name starts with its
  ``site`` prefix; the injection roll hashes the *full* site name, so
  per-module sites fault independently.
* Decisions are scoped: the sweep sets the scope to the candidate
  index, making injection independent of evaluation order, worker
  placement and cache state.
* Each matching ``(spec, site, scope)`` only injects for its first
  ``persist`` occurrences — retries of a transiently faulted site see
  the fault clear, which is what gives recovery policies something to
  recover from.

Crashes and hangs behave differently in a worker process than in the
parent: a worker really dies (``os._exit``) / really sleeps, proving
the pool isolation and watchdog; the parent raises
:class:`~avipack.errors.WorkerCrashError` /
:class:`~avipack.errors.WatchdogTimeout` immediately so serial runs
classify the same candidates as failed without killing the interpreter
or stalling the suite.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import (
    AvipackError,
    CacheCorruptionError,
    ConvergenceError,
    InputError,
    ModelRangeError,
    WatchdogTimeout,
    WorkerCrashError,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "active",
    "configure",
    "corrupts",
    "fire",
    "install",
    "uninstall",
]

#: Supported fault kinds.
FAULT_KINDS = ("convergence", "model_range", "crash", "hang",
               "cache_corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: where, what, and how often.

    Attributes
    ----------
    site:
        Site-name prefix this spec matches (``"levels.level3"`` matches
        ``"levels.level3[m1]"`` and ``"levels.level3[m2]"``).
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Probability of injecting per ``(site, scope)``, in [0, 1].
    scopes:
        Optional explicit scope allow-list; when non-empty the spec
        only fires for those scopes (deterministic targeting for
        tests).
    """

    site: str
    kind: str
    rate: float = 1.0
    scopes: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise InputError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not self.site:
            raise InputError("fault site prefix must be non-empty")
        if not 0.0 <= self.rate <= 1.0:
            raise InputError("fault rate must be in [0, 1]")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, picklable chaos plan for one sweep.

    ``parent_pid`` defaults to the pid of the process that *built* the
    plan (the sweep parent); it is how the injector distinguishes "I am
    a pool worker, crash for real" from "I am the parent, raise a
    classifiable error instead".
    """

    specs: Tuple[FaultSpec, ...]
    seed: int = 0
    persist: int = 1
    hang_seconds: float = 30.0
    parent_pid: int = field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        if self.persist < 1:
            raise InputError("persist must be >= 1")
        if self.hang_seconds <= 0.0:
            raise InputError("hang_seconds must be positive")


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at instrumented sites.

    One injector lives per process (see :func:`install`); the sweep
    sets the current scope around each candidate evaluation with
    :meth:`scoped`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._scope: Any = None
        self._counts: Dict[Tuple[str, str, str, Any], int] = {}
        self.injected: int = 0

    @property
    def in_parent(self) -> bool:
        """True when running in the process that built the plan."""
        return os.getpid() == self.plan.parent_pid

    @contextmanager
    def scoped(self, scope: Any):
        """Set the decision scope (e.g. the candidate index) for a block."""
        previous = self._scope
        self._scope = scope
        try:
            yield self
        finally:
            self._scope = previous

    # -- decision ------------------------------------------------------------

    def _roll(self, spec: FaultSpec, site: str) -> float:
        """Deterministic uniform in [0, 1) for ``(seed, spec, site, scope)``."""
        payload = repr((self.plan.seed, spec.site, spec.kind, site,
                        self._scope)).encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def fire(self, site: str) -> None:
        """Evaluate every matching spec at ``site``; may raise or exit."""
        for spec in self.plan.specs:
            if not site.startswith(spec.site):
                continue
            if spec.scopes and self._scope not in spec.scopes:
                continue
            key = (spec.site, spec.kind, site, self._scope)
            occurrence = self._counts.get(key, 0)
            self._counts[key] = occurrence + 1
            if occurrence >= self.plan.persist:
                continue
            if self._roll(spec, site) >= spec.rate:
                continue
            self.injected += 1
            self._trigger(spec, site)

    def _trigger(self, spec: FaultSpec, site: str) -> None:
        if spec.kind == "convergence":
            raise ConvergenceError(
                f"injected convergence fault at {site}",
                iterations=0, residual=float("nan"))
        if spec.kind == "model_range":
            raise ModelRangeError(f"injected model-range fault at {site}")
        if spec.kind == "crash":
            if self.in_parent:
                raise WorkerCrashError(
                    f"injected worker crash at {site} "
                    "(simulated: refusing to kill the parent process)")
            os._exit(86)
        if spec.kind == "hang":
            if self.in_parent:
                raise WatchdogTimeout(
                    f"injected hang at {site} (simulated in-process)")
            time.sleep(self.plan.hang_seconds)
            raise WatchdogTimeout(
                f"injected hang at {site} "
                f"({self.plan.hang_seconds:g} s elapsed)")
        if spec.kind == "cache_corrupt":
            raise CacheCorruptionError(
                f"injected cache corruption at {site}")
        raise InputError(f"unhandled fault kind {spec.kind!r}")


#: The process-wide injector (one per interpreter, like the worker cache).
_ACTIVE: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide, reusing the injector if unchanged.

    Reuse preserves per-scope occurrence counters across the many tasks
    one pool worker executes, which is what makes ``persist`` faults
    transient under retry.
    """
    global _ACTIVE
    if _ACTIVE is None or _ACTIVE.plan != plan:
        _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def uninstall() -> None:
    """Remove any installed plan (sites become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def configure(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Install ``plan`` when given, uninstall when ``None``."""
    if plan is None:
        uninstall()
        return None
    return install(plan)


def active() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _ACTIVE


def fire(site: str) -> None:
    """Instrumentation hook: evaluate installed faults at ``site``.

    No-op (one ``None`` check) unless a plan is installed.
    """
    if _ACTIVE is not None:
        _ACTIVE.fire(site)


#: Sentinel distinguishing "no scope given" from an explicit ``None``.
_KEEP_SCOPE = object()


def corrupts(site: str, scope: Any = _KEEP_SCOPE) -> bool:
    """True when an installed plan injects data corruption at ``site``.

    The probe form of :func:`fire` for sites whose fault is *silent data
    damage* rather than an exception: the durability layer asks whether
    to corrupt, performs the corruption itself (truncating or
    bit-flipping the bytes it was about to persist, classifying a cache
    entry as damaged), and continues — exactly how real torn writes and
    bit rot behave.  Any injected error counts as "corrupt here".

    ``scope`` (e.g. a journal record sequence number) overrides the
    injector's current scope for this one decision, so per-record
    corruption decisions stay deterministic and independent of whatever
    candidate scope surrounds the write.
    """
    if _ACTIVE is None:
        return False
    try:
        if scope is _KEEP_SCOPE:
            _ACTIVE.fire(site)
        else:
            with _ACTIVE.scoped(scope):
                _ACTIVE.fire(site)
    except AvipackError:
        return True
    return False
