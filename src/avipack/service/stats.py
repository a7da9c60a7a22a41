"""Service observability: admission, lifecycle and event counters.

:class:`ServiceStats` is the service-level sibling of the sweep
report's cache/perf sections: a plain counter record the server
mutates from the event loop only (no locking needed) and snapshots
into every ``stats`` response.  Job-level solver work additionally
lands in the process-wide :mod:`avipack.perf` registry under the
``"service.job"`` kernel (``solves`` = jobs completed, ``iterations``
= candidates evaluated, ``wall_s`` = job wall-clock), so one
``perf.snapshot()`` shows solver and service throughput side by side.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from .. import perf as _perf

__all__ = ["SERVICE_KERNEL", "ServiceStats"]

#: The :mod:`avipack.perf` kernel the job server records into.
SERVICE_KERNEL = "service.job"


@dataclass
class ServiceStats:
    """Counters for one server process (reset only by restart)."""

    #: Submissions received (accepted + rejected + deduplicated).
    submitted: int = 0
    #: Submissions admitted into the queue.
    accepted: int = 0
    #: Submissions answered with an existing active job.
    deduplicated: int = 0
    #: Rejections by admission code (``queue_full``, ``draining``, ...).
    rejected: Dict[str, int] = field(default_factory=dict)
    #: Jobs that entered the RUNNING state.
    started: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Jobs interrupted by a drain (journalled, resumable).
    interrupted: int = 0
    #: Unfinished jobs recovered from manifests at startup.
    recovered_jobs: int = 0
    #: Candidates restored from journals instead of recomputed.
    restored_candidates: int = 0
    #: Candidates evaluated (progress callbacks fired) by this process.
    evaluated_candidates: int = 0
    #: Heartbeat events emitted.
    heartbeats: int = 0
    #: Total events appended to job buffers.
    events: int = 0
    #: Client connections accepted.
    connections: int = 0
    #: Stream requests that asked to replay from a sequence number > 0.
    replays: int = 0
    #: Stream requests refused because the buffer no longer covers
    #: the requested sequence number.
    replay_gaps: int = 0
    #: Drain requests honoured (signal or shutdown op).
    drains: int = 0
    #: Retention passes executed (watermark-triggered or on request).
    retention_passes: int = 0
    #: Finished jobs whose journal/store were compacted.
    compacted_jobs: int = 0
    #: Finished jobs evicted by the retention policy.
    evicted_jobs: int = 0
    #: Bytes reclaimed by this process's retention passes.
    reclaimed_bytes: int = 0

    def reject(self, code: str) -> None:
        """Count one admission rejection under its reason code."""
        self.rejected[code] = self.rejected.get(code, 0) + 1

    @property
    def n_rejected(self) -> int:
        """Total rejected submissions across every reason."""
        return sum(self.rejected.values())

    def record_job_perf(self, n_candidates: int, wall_s: float) -> None:
        """Fold one completed job into the :mod:`avipack.perf` registry."""
        _perf.record(SERVICE_KERNEL, solves=1, iterations=n_candidates,
                     wall_s=wall_s)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready copy for the ``stats`` response."""
        return {**dataclasses.asdict(self), "n_rejected": self.n_rejected}
