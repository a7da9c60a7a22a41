"""Sweep observability: timings, cache statistics, ranked candidates.

:class:`SweepReport` is the terminal artefact of a design-space sweep,
mirroring the role the packaging design document plays for a single
design (:mod:`avipack.core.report`): per-candidate timings, cache
effectiveness, worker utilisation, the failure ledger, and the ranked
table of compliant candidates ("design at a minimum cost" over the
whole space).  :func:`render_sweep_document` renders it in the same
plain-text style as the single-design documents, reusing the header
furniture from :mod:`avipack.core.report`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.report import section_header
from ..perf import SolveStats, format_stats
from .cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..results.store import ResultStoreStats
    from .runner import CandidateFailure, CandidateOutcome, CandidateResult

__all__ = ["DurabilityStats", "SweepReport", "render_sweep_document"]


def _rank_key(outcome: "CandidateResult") -> Tuple[float, float, int]:
    """Ranking order: cheapest, then coolest, then candidate index."""
    return (outcome.cost_rank, -outcome.thermal_headroom_c, outcome.index)


@dataclass(frozen=True)
class DurabilityStats:
    """What the durability layer did for one (journalled) sweep.

    Attached to :class:`SweepReport` whenever the run wrote a
    write-ahead journal; all-zero counters on a fresh journalled run,
    populated by :meth:`avipack.sweep.SweepRunner.resume`.
    """

    #: Path of the write-ahead journal backing the sweep.
    journal_path: str
    #: Outcomes restored from the journal instead of recomputed.
    n_resumed: int = 0
    #: Candidates (re)computed by this process (in-flight at the crash,
    #: quarantined, audit-flagged, or never dispatched).
    n_recomputed: int = 0
    #: Journal records that failed checksum/schema verification and
    #: were moved to the ``.quarantine`` sidecar.
    n_quarantined: int = 0
    #: Restored records rejected by the invariant audit (and therefore
    #: recomputed) — see :mod:`avipack.durability.audit`.
    n_audit_failures: int = 0
    #: ``fingerprint -> issues`` detail for the audit rejections.
    audit_issues: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class SweepReport:
    """Everything a sweep produced, in candidate order.

    Attributes
    ----------
    outcomes:
        One :class:`~avipack.sweep.runner.CandidateResult` or
        :class:`~avipack.sweep.runner.CandidateFailure` per candidate,
        in enumeration order (identical for serial and parallel runs).
    wall_time_s:
        End-to-end sweep wall-clock [s].
    mode:
        ``"serial"``, ``"parallel"`` or a serial-fallback description.
    workers:
        Worker processes used (1 for serial).
    cache:
        Aggregated solver-cache counters across all workers.
    perf:
        Per-kernel :class:`~avipack.perf.SolveStats` aggregated across
        every candidate and worker (empty when no solver kernel ran).
    durability:
        Journal/resume accounting (``None`` for unjournalled sweeps).
    result_store:
        Columnar result-store accounting when the run streamed outcomes
        into an :class:`~avipack.results.store.ResultStoreWriter`
        (``None`` otherwise).
    """

    outcomes: Tuple["CandidateOutcome", ...]
    wall_time_s: float
    mode: str
    workers: int
    cache: CacheStats
    perf: Tuple[SolveStats, ...] = ()
    durability: Optional[DurabilityStats] = None
    result_store: Optional["ResultStoreStats"] = None

    # -- outcome views -------------------------------------------------------

    @property
    def results(self) -> Tuple["CandidateResult", ...]:
        """Successfully evaluated candidates, in candidate order."""
        return tuple(o for o in self.outcomes if hasattr(o, "margins"))

    @property
    def failures(self) -> Tuple["CandidateFailure", ...]:
        """Candidates that raised, converted to structured records."""
        return tuple(o for o in self.outcomes if hasattr(o, "error_type"))

    @property
    def n_candidates(self) -> int:
        """Total candidates swept."""
        return len(self.outcomes)

    @property
    def n_compliant(self) -> int:
        """Candidates whose design review closed with no violation."""
        return sum(1 for o in self.results if o.compliant)

    def ranked(self) -> List["CandidateResult"]:
        """Compliant candidates, cheapest first.

        Ordering is fully deterministic: ascending installation-cost
        rank, then descending thermal headroom, then candidate index.
        """
        return sorted((o for o in self.results if o.compliant),
                      key=_rank_key)

    def top(self, k: int) -> List["CandidateResult"]:
        """The ``k`` best compliant candidates, in :meth:`ranked` order.

        Equivalent to ``self.ranked()[:k]`` element for element
        (:func:`heapq.nsmallest` is documented to match a sorted slice,
        including stability), but O(n log k): rendering the top 10 of a
        10^5-candidate campaign no longer sorts the whole population.
        """
        compliant = [o for o in self.results if o.compliant]
        if k >= len(compliant):
            return sorted(compliant, key=_rank_key)
        return heapq.nsmallest(k, compliant, key=_rank_key)

    def best(self) -> Optional["CandidateResult"]:
        """The minimum-cost compliant candidate, if any."""
        top = self.top(1)
        return top[0] if top else None

    # -- recovery ------------------------------------------------------------

    @property
    def n_recovered(self) -> int:
        """Candidates that hit a solver fault but recovered at full
        fidelity (retry or escalation succeeded)."""
        return sum(1 for o in self.results
                   if getattr(o, "recovered", False))

    @property
    def n_degraded(self) -> int:
        """Candidates evaluated at reduced fidelity (level-3 degraded
        to the level-2 boundary estimate)."""
        return sum(1 for o in self.outcomes
                   if getattr(o, "degraded", False))

    @property
    def n_timeouts(self) -> int:
        """Candidates abandoned by the per-candidate watchdog (plus
        injected hangs classified in-process)."""
        return sum(1 for o in self.failures
                   if o.error_type == "WatchdogTimeout")

    def recovery_trails(self) -> List[Tuple[int, "object"]]:
        """Every recorded recovery trail as ``(candidate_index, trail)``
        pairs, in candidate order — the audit log of what the
        supervision layer had to do to keep the sweep alive."""
        trails: List[Tuple[int, "object"]] = []
        for outcome in self.outcomes:
            for trail in getattr(outcome, "recovery", ()):
                trails.append((outcome.index, trail))
        return trails

    # -- observability -------------------------------------------------------

    @property
    def total_evaluation_s(self) -> float:
        """Sum of per-candidate evaluation times (busy time) [s]."""
        return sum(o.elapsed_s for o in self.outcomes)

    def worker_busy_s(self) -> Dict[int, float]:
        """Busy seconds per worker PID (one entry for serial runs)."""
        busy: Dict[int, float] = {}
        for outcome in self.outcomes:
            busy[outcome.worker_pid] = (busy.get(outcome.worker_pid, 0.0)
                                        + outcome.elapsed_s)
        return busy

    @property
    def worker_utilisation(self) -> float:
        """Mean fraction of the wall-clock each worker spent evaluating.

        1.0 means every worker was busy for the whole sweep; low values
        reveal load imbalance or dispatch overhead.
        """
        if self.wall_time_s <= 0.0 or self.workers < 1:
            return 0.0
        return min(self.total_evaluation_s
                   / (self.wall_time_s * self.workers), 1.0)

    def timings(self) -> List[Tuple[int, float]]:
        """Per-candidate ``(index, elapsed_s)`` pairs, candidate order."""
        return [(o.index, o.elapsed_s) for o in self.outcomes]


def render_sweep_document(report: SweepReport, top: int = 10) -> str:
    """Render a sweep report as a plain-text review document.

    Matches the style of
    :func:`avipack.core.report.render_design_document`; ``top`` bounds
    the ranked-candidate table length.
    """
    lines: List[str] = []
    lines += section_header(
        f"DESIGN-SPACE SWEEP REPORT - {report.n_candidates} candidates")
    lines.append("")
    lines.append("1. EXECUTION")
    lines.append(f"   mode                 : {report.mode} "
                 f"({report.workers} worker"
                 f"{'s' if report.workers != 1 else ''})")
    lines.append(f"   wall clock           : {report.wall_time_s:.2f} s "
                 f"({report.total_evaluation_s:.2f} s busy, "
                 f"utilisation {report.worker_utilisation:.0%})")
    cache_line = (f"   cache                : {report.cache.hits} hits / "
                  f"{report.cache.misses} misses "
                  f"(hit rate {report.cache.hit_rate:.0%})")
    if report.cache.corrupt:
        cache_line += f", {report.cache.corrupt} corrupt evicted"
    if report.cache.max_entries is not None:
        cache_line += f", bound {report.cache.max_entries} entries"
    lines.append(cache_line)
    if report.result_store is not None:
        store = report.result_store
        lines.append(f"   result store         : {store.directory} "
                     f"({store.rows_added} rows, "
                     f"{store.shards_sealed} shards)")
    lines.append("")
    lines.append("2. OUTCOMES")
    lines.append(f"   evaluated            : {len(report.results)}")
    lines.append(f"   compliant            : {report.n_compliant}")
    lines.append(f"   failed               : {len(report.failures)}")
    for failure in report.failures[:5]:
        lines.append(f"   - #{failure.index} [{failure.stage}] "
                     f"{failure.error_type}: {failure.message}")
    if len(report.failures) > 5:
        lines.append(f"   ... and {len(report.failures) - 5} more")
    lines.append("")
    lines.append("3. RANKED COMPLIANT CANDIDATES (cheapest first)")
    # Selection, not a full sort: only the rendered rows are ranked.
    ranked = report.top(top)
    if not ranked:
        lines.append("   NONE - no candidate met the specification")
    for position, result in enumerate(ranked, start=1):
        lines.append(
            f"   {position:>2}. {result.candidate.label:<48} "
            f"board {result.worst_board_c:5.1f} degC  "
            f"cost {result.cost_rank:g}")
    if report.n_compliant > top:
        lines.append(
            f"   ... and {report.n_compliant - top} more compliant")
    trails = report.recovery_trails()
    section = 4
    if trails or report.n_degraded or report.n_timeouts:
        lines.append("")
        lines.append("4. RECOVERY")
        section = 5
        lines.append(f"   recovered            : {report.n_recovered}")
        lines.append(f"   degraded             : {report.n_degraded}")
        lines.append(f"   watchdog timeouts    : {report.n_timeouts}")
        for index, trail in trails[:2 * top]:
            lines.append(f"   - #{index} {trail.summary()}")
        if len(trails) > 2 * top:
            lines.append(f"   ... and {len(trails) - 2 * top} more trails")
    if report.durability is not None:
        durability = report.durability
        lines.append("")
        lines.append(f"{section}. DURABILITY")
        section += 1
        lines.append(f"   journal              : {durability.journal_path}")
        lines.append(f"   resumed from journal : {durability.n_resumed}")
        lines.append(f"   recomputed           : {durability.n_recomputed}")
        lines.append(f"   quarantined records  : {durability.n_quarantined}")
        lines.append(f"   audit failures       : "
                     f"{durability.n_audit_failures}")
        for fingerprint, issues in durability.audit_issues[:top]:
            lines.append(f"   - {fingerprint[:12]}: {issues[0]}")
    if report.perf:
        lines.append("")
        lines.append(f"{section}. PERFORMANCE")
        for stat_line in format_stats(report.perf):
            lines.append(f"   {stat_line}")
        reusable = [s for s in report.perf
                    if s.factorizations or s.factorization_reuses]
        if reusable:
            overall = sum(s.factorization_reuses for s in reusable) / sum(
                s.factorizations + s.factorization_reuses for s in reusable)
            lines.append(f"   factorization reuse  : {overall:.0%}")
    return "\n".join(lines)
