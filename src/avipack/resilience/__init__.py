"""Solver supervision: retry and degradation policies, fault injection.

The paper's Fig. 1 design procedure is explicitly iterative — analyses
loop against the specification until the design converges — and an
industrial campaign must survive individual analyses failing without
losing the batch.  This package is that survival layer:

* :mod:`~avipack.resilience.policy` — :class:`SupervisionPolicy` (the
  retry budget and level-3 degradation switch) and the
  :class:`RecoveryTrail` diagnostic attached to recovered/degraded
  results;
* :mod:`~avipack.resilience.supervisor` — :class:`Supervisor`, which
  retries a transient :class:`~avipack.errors.ConvergenceError` at the
  level-2/3 sites of the Fig. 4 pyramid and degrades a level-3 site
  that stays broken;
* :mod:`~avipack.resilience.faults` — deterministic, seeded fault
  injection at named production sites (convergence failures,
  model-range errors, worker crashes, hangs, corrupted cache entries),
  so the sweep engine's failure isolation is tested rather than
  assumed.
"""

from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active,
    configure,
    corrupts,
    fire,
    install,
    uninstall,
)
from .policy import (
    NO_SUPERVISION,
    AttemptRecord,
    RecoveryTrail,
    SupervisionPolicy,
)
from .supervisor import Supervisor

__all__ = [
    "AttemptRecord",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NO_SUPERVISION",
    "RecoveryTrail",
    "Supervisor",
    "SupervisionPolicy",
    "active",
    "configure",
    "corrupts",
    "fire",
    "install",
    "uninstall",
]
