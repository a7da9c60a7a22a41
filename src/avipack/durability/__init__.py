"""Durable sweeps: write-ahead journal, crash-safe resume, audited restore.

The design procedure of Fig. 1/Fig. 4 is an iterative loop over large
candidate spaces — in this library, a multi-hour
:class:`~avipack.sweep.SweepRunner` campaign.  This package makes that
campaign crash-durable:

* :mod:`~avipack.durability.journal` — :class:`SweepJournal`, the
  append-only, per-record-checksummed (CRC-32 + SHA-256), fsync'd
  write-ahead journal the runner writes outcomes to as they arrive,
  and :func:`replay_journal`, the verify-or-quarantine replay that
  never crashes and never silently trusts a damaged record;
* :mod:`~avipack.durability.files` — the one way any layer publishes
  a durable file (:func:`~avipack.durability.files.atomic_write`),
  takes a single-writer ``flock``, sweeps temps a killed write left
  behind, and quarantines a damaged file;
* :mod:`~avipack.durability.audit` — the invariant battery
  (energy-balance residual of the level-2 thermal network, temperature
  bounds, fingerprint integrity, monotone-headroom sanity) every
  journal-restored result must pass before it may re-enter the ranked
  report; a stale or tampered journal degrades to recomputation.

Entry points live on the runner:
``SweepRunner.run(space, journal_path=...)`` journals a campaign and
``SweepRunner.resume(journal_path)`` continues one after any crash —
SIGKILL, OOM, power loss — recomputing only what the journal cannot
prove finished.  ``python -m avipack sweep --journal ... [--resume]``
exposes the same loop on the command line.
"""

from .audit import (
    AUDIT_BOARD_LIMIT_C,
    audit_headroom_monotonicity,
    audit_outcomes,
    audit_result,
    energy_balance_residual_c,
)
from .journal import (
    SCHEMA_VERSION,
    JournalReplay,
    QuarantinedRecord,
    SweepJournal,
    replay_journal,
)

__all__ = [
    "AUDIT_BOARD_LIMIT_C",
    "SCHEMA_VERSION",
    "JournalReplay",
    "QuarantinedRecord",
    "SweepJournal",
    "audit_headroom_monotonicity",
    "audit_outcomes",
    "audit_result",
    "energy_balance_residual_c",
    "replay_journal",
]
