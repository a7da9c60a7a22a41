"""Result-store compaction: drop superseded rows and the older layout.

A resumed or re-ingested campaign appends corrected rows for
fingerprints the store already holds; queries hide the stale ones
behind :meth:`~avipack.results.store.ResultStore.live_mask`, but their
bytes stay on disk forever.  :func:`compact_store` rewrites exactly the
shards that contain dead rows, plus every schema-2 shard (dead rows or
not, so the store ends with every shard compressed at schema 3),
copying each live row into fresh schema-3 shards, then deletes the
originals.  A store holding a schema-1 shard, older than the window
:class:`~avipack.results.ResultStore` reads, is refused untouched.

Crash-safety ordering, designed so SIGKILL anywhere preserves the
ranking contract byte-for-byte:

1. new shards are published first, under numbers *after* every
   existing shard, via the store's own atomic publication path
   (:func:`avipack.results.store.publish_shard`);
2. only after every replacement shard is durable are the old shard
   files deleted.

A crash between 1 and 2 leaves duplicate rows for some fingerprints —
old copy in the original shard, identical new copy in a higher-numbered
shard — which is exactly the state a resumed campaign produces anyway:
``live_mask`` keeps the latest copy, and since the duplicate rows agree
in every column the ranking reads (same ``index`` tie-break column,
same metrics), ``ranking_signature`` is unchanged.  Re-running
compaction finishes the job.

Quarantined files are left untouched (evidence for the operator).
Writers are excluded for the whole pass via the store's advisory
``.writer.lock``, under which the pass also deletes the
``shard-*.rows.tmp.*`` temps a killed shard publish left behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .. import perf as _perf
from ..durability.files import sweep_stale_tmp
from ..errors import ResultStoreError
from ..results.schema import STORE_SCHEMA_VERSION
from ..results.store import (
    _open_writer_lock,
    DEFAULT_SHARD_ROWS,
    ResultStore,
    next_shard_number,
    publish_shard,
)

__all__ = ["StoreCompaction", "compact_store"]


@dataclass(frozen=True)
class StoreCompaction:
    """What one result-store compaction pass rewrote and reclaimed."""

    directory: str
    #: Old shards rewritten (they contained superseded rows or were
    #: written below the current schema).
    shards_rewritten: int
    #: Replacement shards published.
    shards_published: int
    #: Superseded rows dropped.
    rows_dropped: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    @property
    def changed(self) -> bool:
        return bool(self.shards_rewritten)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _live_blocks(rewrite: List[Tuple[object, np.ndarray]],
                 shard_rows: int) -> Iterator[np.ndarray]:
    """The rewritten shards' live rows as logical records, regrouped
    into ``shard_rows`` blocks (at most about two shards' rows held at
    once)."""
    pending: List[np.ndarray] = []
    held = 0
    for shard, mask in rewrite:
        pending.append(shard.logical_rows(mask))
        held += len(pending[-1])
        while held >= shard_rows:
            rows = np.concatenate(pending)
            yield rows[:shard_rows]
            pending = [rows[shard_rows:]]
            held -= shard_rows
    if held:
        yield np.concatenate(pending)


def compact_store(directory: str,
                  shard_rows: int = DEFAULT_SHARD_ROWS,
                  phase_hook: Optional[Callable[[str], None]] = None
                  ) -> StoreCompaction:
    """Rewrite shards holding superseded rows and every schema-2 shard
    at schema 3.

    Takes the store's writer lock for the whole pass (raises
    :class:`~avipack.errors.ResultStoreError` on contention, a missing
    directory or a schema-1 shard); ``ranking_signature`` over the
    store is
    byte-identical before and after.  ``phase_hook`` is the chaos-test
    seam, called with ``"open"``, ``"plan"``, ``"publish"`` (once per
    replacement shard), ``"delete"`` and ``"done"`` as each phase
    begins.
    """
    hook = phase_hook or (lambda phase: None)
    if not os.path.isdir(directory):
        raise ResultStoreError(
            f"result store directory not found: {directory}")
    lock_stream = _open_writer_lock(directory)
    try:
        hook("open")
        # Shard temps a killed publish left behind; the writer lock
        # guarantees no publish is in flight.  Readers' reason-sidecar
        # temps (``*.quarantine.reason.tmp.*``) do not match.
        sweep_stale_tmp(directory, r"shard-\d{6}\.rows")
        store = ResultStore.open(directory)
        live = store.live_mask()
        hook("plan")
        rewrite: List[Tuple[object, np.ndarray]] = []
        for shard in store.shards():
            mask = live[shard.row_base:shard.row_base + shard.n_rows]
            if not mask.all() or shard.schema != STORE_SCHEMA_VERSION:
                rewrite.append((shard, mask))
        bytes_before = 0
        rows_dropped = 0
        for shard, mask in rewrite:
            bytes_before += _file_size(shard.path)
            rows_dropped += int((~mask).sum())
        bytes_after = 0
        shards_published = 0
        number = next_shard_number(directory)
        for rows in _live_blocks(rewrite, shard_rows):
            hook("publish")
            published = publish_shard(directory, number, rows)
            bytes_after += sum(
                _file_size(os.path.join(directory, f"shard-{n:06d}.rows"))
                for n in range(number, number + published))
            shards_published += published
            number += published
        hook("delete")
        # Every replacement shard is durable; now retire the originals.
        for shard, _ in rewrite:
            os.unlink(shard.path)
        hook("done")
    finally:
        lock_stream.close()
    compaction = StoreCompaction(
        directory=directory, shards_rewritten=len(rewrite),
        shards_published=shards_published, rows_dropped=rows_dropped,
        bytes_before=bytes_before, bytes_after=bytes_after)
    if compaction.changed:
        _perf.increment("retention.store_compactions")
    if compaction.bytes_reclaimed:
        _perf.increment("retention.bytes_reclaimed",
                        compaction.bytes_reclaimed)
    return compaction
