"""Retry policy and the structured recovery diagnostics.

The paper's design procedure (Fig. 1) is an *iterate-until-compliant*
loop: thermal and mechanical analyses are re-run against the
specification until the design converges.  An industrial campaign must
survive individual analyses failing without losing the batch, so every
supervised solver attempt — the baseline call, each retry, and any
fidelity degradation — is recorded in a structured
:class:`RecoveryTrail` that travels with the result (and pickles
cleanly across sweep worker processes).

Two kinds of object live here:

* :class:`AttemptRecord` / :class:`RecoveryTrail` — the diagnostic
  ledger of one supervised call site;
* :class:`SupervisionPolicy` — the per-sweep knobs: retry budget and
  whether level-3 failures degrade to level-2 fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import InputError

__all__ = [
    "AttemptRecord",
    "NO_SUPERVISION",
    "RecoveryTrail",
    "SupervisionPolicy",
]


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt at a supervised call site.

    Attributes
    ----------
    attempt:
        Zero-based attempt counter within the site.
    action:
        What was tried: ``"call"``, ``"retry#n"`` or the degradation
        ``"degrade-to-level2"``.
    outcome:
        ``"ok"`` or ``"failed"``.
    error_type, message:
        Exception classification when the attempt failed.
    elapsed_s:
        Wall-clock spent inside the attempt [s].
    """

    attempt: int
    action: str
    outcome: str
    error_type: str = ""
    message: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when this attempt succeeded."""
        return self.outcome == "ok"


@dataclass(frozen=True)
class RecoveryTrail:
    """The full attempt ledger of one supervised site that misbehaved.

    A trail is only recorded when something went wrong: a site that
    succeeds on the first attempt leaves no trail.  ``recovered`` means
    a retry eventually succeeded at full fidelity;
    ``degraded`` means the site only survived by lowering fidelity
    (e.g. level-3 falling back to the level-2 boundary estimate).  A
    trail with neither flag records a failure that exhausted its
    policy.
    """

    site: str
    attempts: Tuple[AttemptRecord, ...]
    recovered: bool
    degraded: bool

    @property
    def resolved(self) -> bool:
        """True when the site ultimately produced a result."""
        return self.recovered or self.degraded

    @property
    def n_attempts(self) -> int:
        """Number of attempts recorded (including the final one)."""
        return len(self.attempts)

    def summary(self) -> str:
        """One-line human-readable digest for reports and logs."""
        parts = []
        for record in self.attempts:
            if record.ok:
                parts.append(f"{record.action} ok")
            else:
                parts.append(f"{record.action} failed({record.error_type})")
        return f"{self.site}: " + " -> ".join(parts)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Per-campaign recovery knobs, picklable for sweep transport.

    Attributes
    ----------
    max_retries:
        Additional attempts a supervised site gets after its first
        failure on a retryable error (transient faults, convergence
        hiccups).
    degrade_level3:
        When a level-3 component solve fails beyond its retry budget,
        fall back to the level-2 boundary estimate (junction = board
        boundary + P·R_jb) and flag the result ``degraded`` instead of
        failing the candidate.
    """

    max_retries: int = 2
    degrade_level3: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise InputError("max_retries must be >= 0")


#: Policy that disables every recovery mechanism: no retries, no
#: degradation.  Failures propagate exactly as they would without a
#: supervisor (trails are still recorded).
NO_SUPERVISION = SupervisionPolicy(max_retries=0, degrade_level3=False)
