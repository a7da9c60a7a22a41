"""Columnar result store: zero-unpickle analytics for large campaigns.

At 10^5–10^6 candidates the bottleneck of a sweep moves downstream of
the solver: ranking, resume parity checks and report rendering that
materialize per-candidate dataclasses (or unpickle one journal payload
per record) dominate wall clock and memory.  This package stores each
outcome as one row of a packed numpy structured array, persisted as
checksummed, atomically-published, compressed shards
(:mod:`~avipack.results.store`); the full outcome objects stay in the
campaign's write-ahead journal.  Query primitives
(:mod:`~avipack.results.query`) and a columnar report renderer
(:mod:`~avipack.results.report`) then answer "top 20 of a million" from
typed columns alone, byte-identical to the in-memory ranking.

Ingestion paths: live (``SweepRunner(result_store=...)`` writes a
campaign's rows to a :class:`~avipack.results.store.ResultStoreWriter`
at close, in candidate order) and
offline (:func:`~avipack.results.ingest.ingest_journal` projects an
existing write-ahead journal into a store).
"""

from .ingest import IngestSummary, ingest_journal
from .query import (
    AxisMarginal,
    axis_marginals,
    headroom_histogram,
    ranked_row_ids,
    ranking_signature,
)
from .report import render_store_report
from .schema import (
    AXIS_FIELDS,
    DTYPE_FINGERPRINT,
    KIND_COMPLETED,
    KIND_FAILED,
    KIND_TIMEOUT,
    ROW_DTYPE,
    STORE_SCHEMA_VERSION,
)
from .store import (
    DEFAULT_SHARD_ROWS,
    ResultStore,
    ResultStoreStats,
    ResultStoreWriter,
)

__all__ = [
    "AXIS_FIELDS",
    "AxisMarginal",
    "DEFAULT_SHARD_ROWS",
    "DTYPE_FINGERPRINT",
    "IngestSummary",
    "KIND_COMPLETED",
    "KIND_FAILED",
    "KIND_TIMEOUT",
    "ROW_DTYPE",
    "ResultStore",
    "ResultStoreStats",
    "ResultStoreWriter",
    "STORE_SCHEMA_VERSION",
    "axis_marginals",
    "headroom_histogram",
    "ingest_journal",
    "ranked_row_ids",
    "ranking_signature",
    "render_store_report",
]
