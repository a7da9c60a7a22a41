"""Journal compaction: fold a verified prefix into one checkpoint.

A campaign journal grows by one fsync'd line per outcome (and, in
older journals, per dispatched candidate), forever.  Compaction
rewrites the file as a single ``checkpoint`` record — the plan, the
latest outcome per fingerprint, the in-flight markers and the sequence
cursor, checksummed under the exact same CRC-32 + SHA-256 line
discipline as every live append
(:func:`avipack.durability.journal.encode_record`) — so replay of the
compacted journal reconstructs byte-identical state, in a file that is
typically orders of magnitude smaller.

The record is written at journal schema 6 from the replayed objects,
whatever schema the folded lines were at: the plan's candidates are one
payload, and the outcomes are another, a single compressed block of
``(raw fingerprint, stripped outcome)`` entries in fingerprint order
(:func:`avipack.durability.journal._encode_outcome_block`).  One zlib
stream over every outcome shares their common bytes, which one stream
per outcome could not; the block takes under half the bytes of
schema 5's per-outcome texts.  Compacting a compacted journal writes
the same bytes again.

Crash safety is the whole point of the design:

* the checkpoint is published with
  :func:`avipack.durability.files.atomic_write` — until its one atomic
  rename the old journal is untouched, so SIGKILL at *any* phase
  leaves either the old or the new journal, both of which replay to
  the same state;
* the journal's advisory ``flock`` is held for the whole pass, so a
  live writer cannot interleave appends with the swap (and compaction
  refuses journals another process is writing); temps a killed earlier
  compaction left are swept only once the lock is held, so a refused
  compactor never deletes the lock holder's in-flight temp;
* the checkpoint reuses the *last folded sequence number*, so a resume
  appended after compaction carries exactly the sequence numbers it
  would have carried on the uncompacted journal — seeded fault
  injection (scoped per sequence number) stays reproducible across
  compaction.

Damaged lines found during the fold are quarantined to the usual
``.quarantine`` sidecar by replay and dropped from the compacted file;
they were never part of the verified state.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .. import perf as _perf
from ..durability.files import atomic_write, sweep_stale_tmp
from ..durability.journal import (
    _encode_outcome_block,
    _encode_payload,
    _open_locked,
    encode_record,
    replay_journal,
)
from ..errors import JournalError

__all__ = ["JournalCompaction", "compact_journal"]


@dataclass(frozen=True)
class JournalCompaction:
    """What one journal compaction pass folded and reclaimed."""

    path: str
    #: Intact records folded into the checkpoint.
    n_folded: int
    #: Damaged lines quarantined (and dropped) during the fold.
    n_quarantined: int
    bytes_before: int
    bytes_after: int

    @property
    def bytes_reclaimed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)


def compact_journal(path: str,
                    quarantine_path: Optional[str] = None,
                    phase_hook: Optional[Callable[[str], None]] = None
                    ) -> JournalCompaction:
    """Fold the journal at ``path`` into one checkpoint record, in place.

    Holds the journal's advisory lock for the whole pass (raises
    :class:`~avipack.errors.DurabilityError` if a writer holds it) and
    publishes via :func:`~avipack.durability.files.atomic_write` — the
    old journal stays valid until the atomic swap.  Raises
    :class:`~avipack.errors.JournalError` when no intact plan or
    checkpoint record survives to anchor the candidate set (such a
    journal cannot support a resume, compacted or not).

    ``phase_hook`` is the chaos-test seam: it is called with
    ``"replay"``, ``"encode"``, ``"write"``, ``"fsync"``, ``"replace"``
    and ``"done"`` as each phase *begins*, so a test can SIGKILL the
    process at every phase boundary and assert recovery.
    """
    hook = phase_hook or (lambda phase: None)
    if not os.path.exists(path):
        raise JournalError(f"journal not found: {path}")
    stream = _open_locked(path)
    try:
        directory, name = os.path.split(path)
        sweep_stale_tmp(directory or ".", re.escape(name))
        hook("replay")
        replay = replay_journal(path, quarantine_path)
        if replay.candidates is None:
            raise JournalError(
                f"cannot compact {path}: no intact plan or checkpoint "
                "record survives to anchor the candidate set")
        bytes_before = os.path.getsize(path)
        hook("encode")
        fields: Dict[str, Any] = {
            "candidates": _encode_payload(tuple(replay.candidates)),
            "space_fingerprint": replay.space_fingerprint,
            "outcomes": _encode_outcome_block(replay.outcomes,
                                              replay.candidates),
            "dispatched": {fp: int(index)
                           for fp, index
                           in sorted(replay.dispatched.items())},
            "n_folded": replay.n_records,
        }
        # Reuse the last folded record's sequence number: replay of the
        # compacted journal then reports the same next_seq as the
        # uncompacted one, so post-compaction appends are numbered
        # identically (seeded fault injection scopes per seq).
        data = encode_record("checkpoint",
                             max(replay.next_seq - 1, 0), fields)
        atomic_write(path, data, phase_hook=hook)
        hook("done")
    finally:
        stream.close()
    _perf.increment("retention.journal_compactions")
    compaction = JournalCompaction(
        path=path, n_folded=replay.n_records,
        n_quarantined=replay.n_quarantined,
        bytes_before=bytes_before, bytes_after=len(data))
    if compaction.bytes_reclaimed:
        _perf.increment("retention.bytes_reclaimed",
                        compaction.bytes_reclaimed)
    return compaction
