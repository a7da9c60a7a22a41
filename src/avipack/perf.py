"""Lightweight, zero-dependency solver instrumentation.

The compiled solver core (:mod:`avipack.thermal.network`,
:mod:`avipack.thermal.transient`, :mod:`avipack.thermal.conduction`)
caches compiled structures and LU factorizations so that a design-space
sweep pays for assembly and factorization once, not once per call.  This
module makes those savings *observable*: every kernel records
:class:`SolveStats` counters — compilations, operator assemblies,
factorizations, factorization reuses, linear solves, fixed-point/time
iterations and wall time — into a process-global registry.

The registry is deliberately minimal (a dict behind a lock, plain
dataclasses, stdlib only) so the instrumentation can stay enabled in
release code: one function call per solve-level event, no per-matrix-
entry work.

Typical use::

    from avipack import perf

    perf.reset()
    network.solve()
    network.solve()
    stats = perf.stats("network.steady")
    assert stats.factorizations == 1          # factorized once...
    assert stats.factorization_reuses == 1    # ...reused on the 2nd call

Sweeps aggregate across workers: each worker snapshots the registry
around a candidate evaluation, ships the per-candidate delta back with
the result, and :class:`~avipack.sweep.report.SweepReport` merges the
deltas into the campaign-level "PERFORMANCE" section.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .errors import InputError

__all__ = [
    "SolveStats",
    "aggregate",
    "counter",
    "counters",
    "delta_since",
    "increment",
    "record",
    "reset",
    "snapshot",
    "stats",
    "timed",
]

#: Kernel names used by the built-in solvers, plus the sweep-service
#: job kernel (``solves`` = jobs completed, ``iterations`` = candidates
#: evaluated, ``wall_s`` = job wall-clock) the job server records so
#: service throughput shows up in the same registry as solver work.
#: :func:`record` and :func:`timed` reject any other name.
KERNELS = ("network.steady", "network.transient", "conduction.steady",
           "conduction.transient", "service.job")

#: Registry of the named scalar counters (:func:`increment` family).
#: :func:`increment` rejects any name not declared here, and a test
#: checks that every entry is spelled out at a call site, so dashboards
#: can enumerate this tuple and trust that each name is real and fed.
COUNTERS = ("levels.detail_builds",
            "results.blob_fetches", "results.quarantined_checksum",
            "results.quarantined_header",
            "results.quarantined_truncation", "results.rows_ingested",
            "results.shards_quarantined", "results.shards_written",
            "retention.bytes_reclaimed", "retention.disk_low_refusals",
            "retention.evictions", "retention.journal_compactions",
            "retention.passes", "retention.store_compactions")


@dataclass(frozen=True)
class SolveStats:
    """Counters for one solver kernel.

    Attributes
    ----------
    kernel:
        Kernel name, e.g. ``"network.steady"``.
    compilations:
        Times a network/grid structure was lowered to index arrays and
        a reusable constant-part operator.
    assemblies:
        Times an operator matrix was (re)built.  A purely linear
        network assembles once per structure; a nonlinear fixed point
        re-assembles the callable part every iteration.
    factorizations:
        LU factorizations computed.
    factorization_reuses:
        Linear solves answered by a previously computed factorization
        (the cheap path the compiled core exists to hit).
    solves:
        Top-level solve/integrate calls.
    iterations:
        Fixed-point iterations (steady) or time steps (transient).
    wall_s:
        Wall-clock seconds spent inside the kernel.
    """

    kernel: str
    compilations: int = 0
    assemblies: int = 0
    factorizations: int = 0
    factorization_reuses: int = 0
    solves: int = 0
    iterations: int = 0
    wall_s: float = 0.0

    # -- arithmetic ----------------------------------------------------------

    def merged(self, other: "SolveStats") -> "SolveStats":
        """Counter-wise sum with another record of the same kernel."""
        if other.kernel != self.kernel:
            raise InputError(
                f"cannot merge {self.kernel!r} with {other.kernel!r}")
        return SolveStats(
            kernel=self.kernel,
            compilations=self.compilations + other.compilations,
            assemblies=self.assemblies + other.assemblies,
            factorizations=self.factorizations + other.factorizations,
            factorization_reuses=(self.factorization_reuses
                                  + other.factorization_reuses),
            solves=self.solves + other.solves,
            iterations=self.iterations + other.iterations,
            wall_s=self.wall_s + other.wall_s)

    def minus(self, earlier: "SolveStats") -> "SolveStats":
        """Counter-wise difference (``self`` after, ``earlier`` before)."""
        if earlier.kernel != self.kernel:
            raise InputError(
                f"cannot diff {self.kernel!r} with {earlier.kernel!r}")
        return SolveStats(
            kernel=self.kernel,
            compilations=self.compilations - earlier.compilations,
            assemblies=self.assemblies - earlier.assemblies,
            factorizations=self.factorizations - earlier.factorizations,
            factorization_reuses=(self.factorization_reuses
                                  - earlier.factorization_reuses),
            solves=self.solves - earlier.solves,
            iterations=self.iterations - earlier.iterations,
            wall_s=self.wall_s - earlier.wall_s)

    @property
    def empty(self) -> bool:
        """True when every counter is zero."""
        return not (self.compilations or self.assemblies
                    or self.factorizations or self.factorization_reuses
                    or self.solves or self.iterations or self.wall_s)

    @property
    def reuse_rate(self) -> float:
        """Fraction of linear solves served by a cached factorization."""
        total = self.factorizations + self.factorization_reuses
        if not total:
            return 0.0
        return self.factorization_reuses / total


_DECLARED_KERNELS = frozenset(KERNELS)
_DECLARED_COUNTERS = frozenset(COUNTERS)

_REGISTRY: Dict[str, SolveStats] = {}

#: Named scalar counters for subsystems whose events do not fit the
#: :class:`SolveStats` shape (dotted names, e.g. ``results.rows_ingested``,
#: ``results.shards_written``, ``results.blob_fetches``).
_COUNTERS: Dict[str, int] = {}
_LOCK = threading.Lock()


def _check_declared(name: str, declared: FrozenSet[str],
                    registry: str) -> None:
    if name not in declared:
        raise InputError(f"undeclared perf name {name!r}: add it to "
                         f"avipack.perf.{registry}")


def record(kernel: str, *, compilations: int = 0, assemblies: int = 0,
           factorizations: int = 0, factorization_reuses: int = 0,
           solves: int = 0, iterations: int = 0,
           wall_s: float = 0.0) -> None:
    """Accumulate counters for ``kernel`` in the process registry.

    Raises :class:`~avipack.errors.InputError` when ``kernel`` is not
    declared in :data:`KERNELS`.
    """
    _check_declared(kernel, _DECLARED_KERNELS, "KERNELS")
    increment = SolveStats(
        kernel=kernel, compilations=compilations, assemblies=assemblies,
        factorizations=factorizations,
        factorization_reuses=factorization_reuses, solves=solves,
        iterations=iterations, wall_s=wall_s)
    with _LOCK:
        current = _REGISTRY.get(kernel)
        _REGISTRY[kernel] = (increment if current is None
                             else current.merged(increment))


def stats(kernel: str) -> SolveStats:
    """Current counters for ``kernel`` (all-zero if never recorded)."""
    with _LOCK:
        return _REGISTRY.get(kernel, SolveStats(kernel=kernel))


def snapshot() -> Dict[str, SolveStats]:
    """Copy of the whole registry (records are immutable)."""
    with _LOCK:
        return dict(_REGISTRY)


def reset(kernel: Optional[str] = None) -> None:
    """Zero one kernel's (or named counter's) records, or everything.

    With a name, both registries are consulted: kernel names and named
    scalar counters share the reset vocabulary so call sites need not
    care which family an instrumentation point belongs to.
    """
    with _LOCK:
        if kernel is None:
            _REGISTRY.clear()
            _COUNTERS.clear()
        else:
            _REGISTRY.pop(kernel, None)
            _COUNTERS.pop(kernel, None)


def increment(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the named scalar counter (created at zero).

    The dotted-name companion to :func:`record` for subsystems — the
    columnar result store, notably — whose events are simple tallies
    rather than solver-shaped counter records.  Raises
    :class:`~avipack.errors.InputError` when ``name`` is not declared
    in :data:`COUNTERS`.
    """
    _check_declared(name, _DECLARED_COUNTERS, "COUNTERS")
    with _LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + amount


def counter(name: str) -> int:
    """Current value of one named scalar counter (0 if never bumped)."""
    with _LOCK:
        return _COUNTERS.get(name, 0)


def counters(prefix: Optional[str] = None) -> Dict[str, int]:
    """Copy of the named scalar counters, optionally prefix-filtered.

    ``counters("results.")`` returns every result-store counter; the
    mapping is sorted by name so renderings are deterministic.
    """
    with _LOCK:
        items = sorted(_COUNTERS.items())
    return {name: value for name, value in items
            if prefix is None or name.startswith(prefix)}


def delta_since(before: Dict[str, SolveStats]) -> Tuple[SolveStats, ...]:
    """Per-kernel counter deltas accumulated since ``before``.

    ``before`` is a prior :func:`snapshot`.  Kernels whose counters did
    not move are omitted; the result is ordered by kernel name so two
    identical evaluations produce identical tuples.
    """
    deltas = []
    for kernel, after in sorted(snapshot().items()):
        earlier = before.get(kernel)
        diff = after if earlier is None else after.minus(earlier)
        if not diff.empty:
            deltas.append(diff)
    return tuple(deltas)


def aggregate(groups: Iterable[Iterable[SolveStats]]
              ) -> Tuple[SolveStats, ...]:
    """Merge many per-candidate/per-worker delta tuples by kernel.

    Returns one record per kernel, ordered by kernel name — the shape
    the sweep report renders.
    """
    by_kernel: Dict[str, SolveStats] = {}
    for group in groups:
        for record_ in group:
            current = by_kernel.get(record_.kernel)
            by_kernel[record_.kernel] = (
                record_ if current is None else current.merged(record_))
    return tuple(by_kernel[name] for name in sorted(by_kernel))


@contextmanager
def timed(kernel: str) -> Iterator[None]:
    """Context manager adding the block's wall time to ``kernel``.

    An undeclared ``kernel`` raises before the block runs.
    """
    _check_declared(kernel, _DECLARED_KERNELS, "KERNELS")
    start = time.perf_counter()
    try:
        yield
    finally:
        record(kernel, wall_s=time.perf_counter() - start)


def format_stats(records: Union[Iterable[SolveStats],
                                Mapping[str, SolveStats]]
                 ) -> Tuple[str, ...]:
    """Render records as aligned plain-text lines (report furniture).

    Accepts either an iterable of records or a :func:`snapshot`-style
    mapping (rendered in kernel-name order).
    """
    if isinstance(records, Mapping):
        records = [records[kernel] for kernel in sorted(records)]
    return tuple(
        f"{item.kernel:<22} solves {item.solves:>6}  "
        f"iter {item.iterations:>7}  asm {item.assemblies:>6}  "
        f"LU {item.factorizations:>5}  "
        f"reuse {item.factorization_reuses:>7} "
        f"({item.reuse_rate:.0%})  {item.wall_s:8.3f} s"
        for item in records)
