"""Disk-budget primitives: usage probes, watermarks, retention policy.

The service-side governor (:mod:`avipack.service.server`) composes
three small, separately testable pieces from here:

* :func:`directory_bytes` — how much the journal/store tree actually
  occupies (a plain ``os.walk`` sum; races with concurrent deletion
  are tolerated, a vanished file counts as zero);
* :class:`DiskBudget` — a hysteresis latch over high/low watermarks:
  usage at or above ``high_bytes`` enters the degraded ``disk_low``
  state, and only dropping back to ``low_bytes`` or below leaves it,
  so admission does not flap when usage hovers at the threshold;
* :class:`RetentionPolicy` — which *finished* jobs an eviction pass
  may delete: keep the newest ``keep_last_n``, drop jobs older than
  ``max_age_s``, and drop oldest-first beyond ``max_bytes``.  ``None``
  disables a clause; an all-``None`` policy evicts nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..errors import InputError

__all__ = ["DiskBudget", "RetentionPolicy", "directory_bytes"]


def directory_bytes(path: str) -> int:
    """Total bytes of every regular file under ``path`` (0 if absent).

    A plain file counts as its own size.  Tolerates concurrent
    deletion: a file that vanishes between listing and ``stat`` simply
    contributes nothing.
    """
    if os.path.isfile(path):
        try:
            return os.path.getsize(path)
        except OSError:
            return 0
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                continue
    return total


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on what finished-job state a retention pass may keep.

    Clauses compose as an intersection of what survives: a job is
    evicted when *any* enabled clause condemns it.  ``None`` disables
    a clause; the default policy keeps everything (compaction still
    runs — it loses no information).
    """

    #: Keep at most this many finished jobs (newest first).
    keep_last_n: Optional[int] = None
    #: Evict finished jobs older than this many seconds.
    max_age_s: Optional[float] = None
    #: Evict oldest finished jobs until their total footprint fits.
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.keep_last_n is not None and self.keep_last_n < 0:
            raise InputError("keep_last_n must be >= 0")
        if self.max_age_s is not None and self.max_age_s < 0:
            raise InputError("max_age_s must be >= 0")
        if self.max_bytes is not None and self.max_bytes < 0:
            raise InputError("max_bytes must be >= 0")

    @property
    def bounded(self) -> bool:
        """True when any eviction clause is enabled."""
        return (self.keep_last_n is not None
                or self.max_age_s is not None
                or self.max_bytes is not None)


class DiskBudget:
    """Hysteresis latch over a high/low disk-usage watermark pair.

    ``observe(usage)`` latches ``disk_low`` when usage reaches
    ``high_bytes`` and releases it only once usage falls to
    ``low_bytes`` — the gap is the hysteresis band that keeps
    admission from flapping while retention is catching up.
    """

    def __init__(self, high_bytes: int, low_bytes: int) -> None:
        if high_bytes <= 0:
            raise InputError("high_bytes must be > 0")
        if not 0 <= low_bytes <= high_bytes:
            raise InputError(
                f"low_bytes must be in [0, high_bytes]; got "
                f"low={low_bytes} high={high_bytes}")
        self.high_bytes = high_bytes
        self.low_bytes = low_bytes
        #: Latched degraded state: refuse new submissions while True.
        self.disk_low = False
        #: Last usage figure observed (for status reporting).
        self.last_usage = 0

    def observe(self, usage: int) -> bool:
        """Feed one usage sample; returns the (possibly new) state."""
        self.last_usage = usage
        if usage >= self.high_bytes:
            self.disk_low = True
        elif usage <= self.low_bytes:
            self.disk_low = False
        return self.disk_low
