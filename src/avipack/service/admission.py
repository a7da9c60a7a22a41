"""Admission control: bounded queues, quotas, priorities.

Unbounded queues turn overload into latency collapse and OOM death;
the job server instead *rejects with a structured reason* at the door.
:func:`admit` is the single decision point — every rejection names a
code from the protocol vocabulary (``queue_full``, ``quota_exceeded``,
``job_too_large``, ``draining``) plus a human-readable reason, so a
saturated server stays deterministic, observable and small.

:class:`JobQueue` is the ready queue behind the decision: a heap
ordered by descending priority then admission order, so higher
priorities run first and equal priorities stay FIFO.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

__all__ = ["AdmissionPolicy", "JobQueue", "Rejection", "admit"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds one server instance enforces at submission time."""

    #: Queued (not yet running) jobs the server will hold.
    max_queued: int = 16
    #: Active (queued + running) jobs per client identity.
    max_jobs_per_client: int = 4
    #: Candidates one submission may comprise.
    max_candidates_per_job: int = 100_000


@dataclass(frozen=True)
class Rejection:
    """A structured admission refusal (code + human-readable reason)."""

    code: str
    reason: str


def admit(policy: AdmissionPolicy, *, n_candidates: int,
          queued: int, client_active: int,
          draining: bool, disk_low: bool = False) -> Optional[Rejection]:
    """Decide one submission; ``None`` admits, otherwise a rejection.

    Checks run cheapest-refusal-first: a draining server refuses
    everything, then a disk-budget breach (the degraded mode the
    retention governor latches — existing jobs and queries keep
    serving, only *new* work is refused), then size, then the global
    queue bound, then the per-client quota.
    """
    if draining:
        return Rejection(
            "draining",
            "server is draining (shutdown in progress); admission is "
            "closed — resubmit after restart")
    if disk_low:
        return Rejection(
            "disk_low",
            "disk budget exhausted (usage above the high watermark "
            "and retention has not yet reclaimed enough); running "
            "jobs and queries keep serving — resubmit once usage "
            "falls below the low watermark")
    if n_candidates > policy.max_candidates_per_job:
        return Rejection(
            "job_too_large",
            f"submission comprises {n_candidates} candidates, above "
            f"the {policy.max_candidates_per_job}-candidate bound; "
            "split the space or sample it")
    if queued >= policy.max_queued:
        return Rejection(
            "queue_full",
            f"queue is at its {policy.max_queued}-job bound; retry "
            "after a running job finishes")
    if client_active >= policy.max_jobs_per_client:
        return Rejection(
            "quota_exceeded",
            f"client already has {client_active} active jobs, at the "
            f"{policy.max_jobs_per_client}-job quota; wait for one to "
            "finish or cancel it")
    return None


class JobQueue:
    """Priority-then-FIFO ready queue of job ids.

    Heap entries are ``(-priority, submit_order, job_id)``; removal
    (queued-job cancellation) is lazy: ``_live`` holds the ids actually
    queued, pops skip heap entries no longer in it, so pops stay
    O(log n) and removing an id that was never queued changes nothing.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, str]] = []
        self._live: Set[str] = set()

    def __len__(self) -> int:
        return len(self._live)

    def push(self, job_id: str, priority: int, submit_order: int) -> None:
        self._live.add(job_id)
        heapq.heappush(self._heap, (-priority, submit_order, job_id))

    def pop(self) -> Optional[str]:
        """Highest-priority, oldest job id (``None`` when empty)."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            if job_id in self._live:
                self._live.discard(job_id)
                return job_id
        return None

    def remove(self, job_id: str) -> None:
        """Drop a queued job (cancellation before it ran)."""
        self._live.discard(job_id)

    def ids(self) -> List[str]:
        """Queued job ids in pop order (diagnostics only)."""
        live = [entry for entry in self._heap if entry[2] in self._live]
        return [job_id for _, _, job_id in sorted(live)]
