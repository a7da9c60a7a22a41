"""Crash-safe space governance for journals, result stores and jobs.

Durability (:mod:`avipack.durability`), the columnar result store
(:mod:`avipack.results`) and the job service (:mod:`avipack.service`)
all write append-only, checksummed state — and none of them ever
reclaimed a byte.  This package bounds that growth without weakening a
single crash-safety guarantee:

* :func:`compact_journal` folds a journal's verified prefix into one
  checksummed ``checkpoint`` record (plus whatever live tail follows),
  atomically, under the journal's advisory lock — resume ranks
  byte-identically to the uncompacted journal;
* :func:`compact_store` rewrites result-store shards dropping
  superseded rows, publish-new-then-delete-old, so
  ``ranking_signature`` is preserved across a SIGKILL at any point;
* :class:`DiskBudget` + :class:`RetentionPolicy` drive the service's
  governor: high/low watermarks with hysteresis, and eviction bounds
  (``keep_last_n`` / ``max_age_s`` / ``max_bytes``) over finished
  jobs.

Observability: ``retention.journal_compactions``,
``retention.store_compactions``, ``retention.bytes_reclaimed``,
``retention.evictions``, ``retention.passes`` and
``retention.disk_low_refusals`` counters in :mod:`avipack.perf`.
CLI: ``python -m avipack compact``.
"""

from .budget import DiskBudget, RetentionPolicy, directory_bytes
from .checkpoint import JournalCompaction, compact_journal
from .storecompact import StoreCompaction, compact_store

__all__ = [
    "DiskBudget",
    "JournalCompaction",
    "RetentionPolicy",
    "StoreCompaction",
    "compact_journal",
    "compact_store",
    "directory_bytes",
]
