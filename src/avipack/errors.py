"""Exception hierarchy for :mod:`avipack`.

All errors raised by the library derive from :class:`AvipackError` so that
callers can catch the whole family with a single ``except`` clause.  The
subclasses mirror the major failure categories encountered in a packaging
design flow: bad user input, a solver that failed to converge, a physical
model driven outside its validity envelope, and a design that violates its
specification.

Exceptions that carry extra constructor arguments define ``__reduce__``
so they survive pickling intact: sweep worker processes raise them, and
the parent re-materialises them with every diagnostic attribute (not
just the message, which is all the default ``Exception`` reduction
preserves).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple


class AvipackError(Exception):
    """Base class for every exception raised by the library."""


class InputError(AvipackError, ValueError):
    """An argument is malformed, out of range, or inconsistent.

    Raised eagerly by constructors and solver entry points so that bad
    input is reported at the call site rather than deep inside a solver.
    """


class ConvergenceError(AvipackError, RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Last residual norm observed (``float('nan')`` if unknown).
    last_iterate:
        Optional snapshot of the solver state at the moment it gave up
        (for the network solver: node name → temperature [K]), which a
        caller can pass back as a warm start.
    """

    def __init__(self, message: str, iterations: int = 0,
                 residual: float = float("nan"),
                 last_iterate: Optional[Dict[str, float]] = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.last_iterate = last_iterate

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, (self.args[0] if self.args else "",
                                 self.iterations, self.residual,
                                 self.last_iterate))


class ModelRangeError(AvipackError, ValueError):
    """A correlation or property model was evaluated outside its validity.

    Examples: a fluid property requested above the critical temperature, a
    Nusselt correlation outside its Reynolds range, a wick model with a
    non-physical porosity.
    """


class OperatingLimitError(AvipackError, RuntimeError):
    """A two-phase device was asked to operate beyond a physical limit.

    Raised, e.g., when a heat pipe is loaded above its capillary limit or a
    loop heat pipe beyond the wick's maximum pumping pressure.  The
    ``limit_name`` attribute identifies the limiting mechanism.
    """

    def __init__(self, message: str, limit_name: str = "",
                 limit_value: float = float("nan")) -> None:
        super().__init__(message)
        self.limit_name = limit_name
        self.limit_value = limit_value

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, (self.args[0] if self.args else "",
                                 self.limit_name, self.limit_value))


class SpecificationError(AvipackError):
    """A design violates its specification (used by the core design flow).

    Carries the list of violated requirement identifiers so qualification
    reports can enumerate failures.
    """

    def __init__(self, message: str,
                 violations: Iterable[object] = ()) -> None:
        super().__init__(message)
        self.violations = tuple(violations)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, (self.args[0] if self.args else "",
                                 self.violations))


class MaterialNotFoundError(AvipackError, KeyError):
    """A material or fluid name is absent from the library database."""


class WatchdogTimeout(AvipackError, TimeoutError):
    """A supervised evaluation exceeded its watchdog time budget.

    Raised directly by the fault injector's simulated hangs, and used as
    the failure classification when :class:`avipack.sweep.SweepRunner`'s
    per-candidate watchdog abandons a worker that stopped responding.
    """


class WorkerCrashError(AvipackError, RuntimeError):
    """A sweep worker process died (or was made to die) mid-evaluation.

    In a real parallel sweep the pool surfaces this as
    ``BrokenProcessPool``; the runner retries the unfinished candidates
    serially, where an injected crash raises this exception instead of
    killing the (only) interpreter, keeping serial and parallel failure
    classifications identical.
    """


class CacheCorruptionError(AvipackError, RuntimeError):
    """A solver-cache entry could not be read back.

    :class:`avipack.sweep.SolverCache` treats it — and any other error
    raised while loading a stored entry — as a cache miss: the entry is
    evicted, counted in the ``corrupt`` statistic, and recomputed.
    """


class DurabilityError(AvipackError, RuntimeError):
    """A durability-layer invariant cannot be upheld.

    Base of :class:`JournalError` and :class:`ResultStoreError`; raised
    directly for cross-process hazards such as advisory-lock contention
    on a journal file — two processes appending to the same journal
    would interleave records, which no checksum can repair, so the
    second writer is refused up front instead.

    ``reason`` classifies the failure.  ``"schema"`` marks an intact
    journal line or store shard written at a schema outside the window
    this release reads (the schema it writes and the one before it);
    its message names the release and command that upgrade the file.
    Every other failure keeps the default ``"error"`` unless a subclass
    documents more.
    """

    def __init__(self, message: str, reason: str = "error") -> None:
        super().__init__(message)
        self.reason = reason

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, (self.args[0] if self.args else "",
                                 self.reason))


class ServiceError(AvipackError, RuntimeError):
    """A sweep-service request failed with a structured reason.

    Carries the machine-readable ``code`` the server attached to the
    rejection (``"queue_full"``, ``"quota_exceeded"``, ``"draining"``,
    ``"replay_gap"``, ...) so clients can branch on the reason without
    parsing the human-readable message.
    """

    def __init__(self, message: str, code: str = "error") -> None:
        super().__init__(message)
        self.code = code

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__, (self.args[0] if self.args else "",
                                 self.code))


class ResultStoreError(DurabilityError):
    """A columnar result store cannot be written or served.

    Individual damaged *shards* never raise — they are renamed to a
    ``.quarantine`` sidecar at open and their rows recomputed or
    re-ingested from the journal (see :mod:`avipack.results.store`).
    It is raised for the cases the store cannot work around: a missing
    store directory, writer-lock contention, or an intact shard at a
    store schema older than the window (``reason="schema"``; the store
    is left as it was).

    Inside the store, ``reason`` also classifies a shard's damage for
    the quarantine sidecars and the per-reason
    ``results.quarantined_*`` counters: ``"header"``
    (unparseable header, wrong magic, stale schema, dtype or row-count
    disagreement), ``"checksum"`` (CRC-32 or SHA-256 mismatch over the
    payload), ``"truncation"`` (payload shorter or longer than the
    header promises, or unreadable bytes), ``"payload"`` (a payload
    whose checksums hold but that does not inflate to the rows its
    header promises), or the default ``"error"`` for non-shard
    failures.
    """


class JournalError(DurabilityError):
    """A sweep write-ahead journal cannot support a resume.

    Individual damaged records never raise — they are quarantined to the
    ``.quarantine`` sidecar and their candidates recomputed (see
    :mod:`avipack.durability.journal`).  It is raised where resuming is
    *impossible*: the journal file is missing or unreadable, or no
    intact plan record survives to name the candidate set.  It is also
    raised, with ``reason="schema"`` and the journal left as it was,
    for an intact line at a schema outside the window this release
    reads, which the resume must not drop as damage.
    """
