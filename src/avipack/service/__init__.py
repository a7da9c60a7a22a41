"""The resilient sweep job service.

An asyncio job server (:class:`SweepService`, ``python -m avipack
serve``) that accepts design-space sweep submissions over a local
Unix socket, applies admission control (bounded queue, per-client
quotas, per-job size bounds), executes each job through the existing
:class:`~avipack.sweep.SweepRunner` under write-ahead journalling, and
streams per-candidate progress, heartbeat and completion events to
subscribed clients.  SIGTERM drains gracefully; SIGKILL is recovered
on restart by resuming every unfinished job from its journal, with
rankings identical to an uninterrupted run.

Layering::

    protocol   wire format + submission validation (transport-free)
    admission  bounded-queue/quota decisions + the priority queue
    jobs       job records, event buffers, crash-safe manifests
    stats      service counters + avipack.perf integration
    server     the asyncio server (SweepService, ThreadedService)
    client     blocking ServiceClient with reconnect-and-replay
"""

from .._exports import lazy_exports
from .admission import AdmissionPolicy, JobQueue, Rejection, admit
from .client import ServiceClient
from .jobs import ACTIVE_STATES, TERMINAL_STATES, Job, JobStore
from .protocol import (
    ERROR_CODES,
    REQUEST_OPS,
    TERMINAL_EVENTS,
    ProtocolError,
    build_candidates,
    normalize_submission,
    submission_fingerprint,
)
from .stats import SERVICE_KERNEL, ServiceStats

# The asyncio server loads on first access: a client, a sweep and the
# CLI's other commands never start one.
_EXPORTS = {".server": ("ServiceConfig", "SweepService", "ThreadedService")}
__getattr__, __dir__, _ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "ACTIVE_STATES",
    "AdmissionPolicy",
    "ERROR_CODES",
    "Job",
    "JobQueue",
    "JobStore",
    "ProtocolError",
    "REQUEST_OPS",
    "Rejection",
    "SERVICE_KERNEL",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SweepService",
    "TERMINAL_EVENTS",
    "TERMINAL_STATES",
    "ThreadedService",
    "admit",
    "build_candidates",
    "normalize_submission",
    "submission_fingerprint",
]
