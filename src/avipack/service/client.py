"""Blocking client for the sweep job service.

:class:`ServiceClient` speaks the JSON-lines protocol over the server's
Unix socket and wraps the failure modes a long-lived campaign actually
hits:

* **Transient disconnects** — every request is retried over a fresh
  connection (``retries`` attempts with a fixed delay) before the
  client gives up with a ``ServiceError`` (code ``unreachable``).
* **Reconnect-and-replay** — :meth:`stream` tracks the last event
  sequence number it delivered; when the connection drops mid-stream it
  reconnects and resumes from ``last + 1``, deduplicating anything the
  server replays, so the caller observes every event exactly once (per
  server incarnation).
* **Server restarts** — a restarted server issues fresh sequence
  numbers and answers stale replay cursors with ``replay_gap`` plus the
  live buffer bounds; :meth:`stream` resets its cursor to the buffer
  head and keeps going.

Structured rejections (``queue_full``, ``quota_exceeded``,
``draining``, ...) surface as :class:`~avipack.errors.ServiceError`
with ``.code`` set to the protocol vocabulary, so callers can branch
on overload without parsing prose.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, List, Optional

from ..errors import ServiceError
from .protocol import decode_line, encode_line

__all__ = ["ServiceClient"]


class ServiceClient:
    """One connection-per-exchange client (safe to share per thread)."""

    def __init__(self, socket_path: str, timeout_s: float = 30.0,
                 retries: int = 3, retry_delay_s: float = 0.2) -> None:
        if retries < 1:
            raise ServiceError("retries must be >= 1", code="bad_request")
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_delay_s = retry_delay_s

    # -- transport -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(self.timeout_s)
        try:
            conn.connect(self.socket_path)
        except OSError:
            conn.close()
            raise
        return conn

    def _exchange(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response round trip with reconnect retries."""
        last_error: Optional[OSError] = None
        for attempt in range(self.retries):
            if attempt > 0:
                time.sleep(self.retry_delay_s)
            try:
                conn = self._connect()
            except OSError as exc:
                last_error = exc
                continue
            try:
                reader = conn.makefile("rb")
                conn.sendall(encode_line(payload))
                line = reader.readline()
            except OSError as exc:
                last_error = exc
                continue
            finally:
                conn.close()
            if not line:
                last_error = ConnectionResetError(
                    "server closed the connection before responding")
                continue
            return decode_line(line)
        raise ServiceError(
            f"service at {self.socket_path} unreachable after "
            f"{self.retries} attempts: {last_error}",
            code="unreachable")

    @staticmethod
    def _unwrap(response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("reason", "request failed")),
            code=str(error.get("code", "error")))

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._unwrap(self._exchange(payload))

    # -- simple ops ----------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self._request({"op": "ping"})

    def submit(self, *, axes: Optional[Dict[str, Any]] = None,
               candidates: Optional[List[Dict[str, Any]]] = None,
               sample: Optional[int] = None, seed: int = 0,
               priority: int = 0, deadline_s: Optional[float] = None,
               client: str = "anonymous") -> Dict[str, Any]:
        """Submit a sweep; returns the acceptance payload.

        Raises :class:`~avipack.errors.ServiceError` with the
        structured rejection code on refusal (``queue_full``,
        ``quota_exceeded``, ``job_too_large``, ``draining``,
        ``invalid_space``).
        """
        payload: Dict[str, Any] = {"op": "submit", "seed": seed,
                                   "priority": priority, "client": client}
        if axes is not None:
            payload["axes"] = axes
        if candidates is not None:
            payload["candidates"] = candidates
        if sample is not None:
            payload["sample"] = sample
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        return self._request(payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request({"op": "status", "job_id": job_id})

    def cancel(self, job_id: str,
               reason: str = "cancelled by client") -> Dict[str, Any]:
        return self._request({"op": "cancel", "job_id": job_id,
                              "reason": reason})

    def results(self, job_id: str, k: int = 20) -> Dict[str, Any]:
        """Top-``k`` ranking + headroom analytics from the job's
        columnar result store (served zero-unpickle; raises
        :class:`~avipack.errors.ServiceError` with code
        ``"no_results"`` when the job has no store)."""
        return self._request({"op": "results", "job_id": job_id,
                              "k": k})

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request({"op": "jobs"})["jobs"]

    def stats(self) -> Dict[str, Any]:
        return self._request({"op": "stats"})

    def retention(self) -> Dict[str, Any]:
        """Run a retention pass now (compact + evict finished jobs).

        Returns the pass summary: job ids compacted and evicted,
        bytes reclaimed, and the governor's disk state (``disk_low``,
        ``usage_bytes``, watermarks — ``None`` values when the server
        runs without a disk budget)."""
        return self._request({"op": "retention"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit (same path as SIGTERM)."""
        return self._request({"op": "shutdown"})

    # -- streaming -----------------------------------------------------------

    def stream(self, job_id: str, from_seq: int = 0,
               max_reconnects: int = 10) -> Iterator[Dict[str, Any]]:
        """Yield job events until a terminal one, surviving disconnects.

        Reconnects up to ``max_reconnects`` times, replaying from the
        last delivered sequence number; a ``replay_gap`` answer (buffer
        eviction or server restart) resets the cursor to the live
        buffer head.  Duplicate sequence numbers from overlapping
        replays are dropped, so each event is yielded at most once.
        """
        next_seq = from_seq
        reconnects = 0
        while True:
            try:
                with self._connect() as conn:
                    reader = conn.makefile("rb")
                    conn.sendall(encode_line({"op": "stream",
                                              "job_id": job_id,
                                              "from_seq": next_seq}))
                    header = decode_line(reader.readline())
                    if not header.get("ok"):
                        error = header.get("error") or {}
                        if error.get("code") == "replay_gap":
                            # Buffer moved on (or the server restarted
                            # and its sequence space reset): resume from
                            # the head the server advertises.
                            next_seq = int(error.get("buffer_start", 0))
                            continue
                        raise ServiceError(
                            str(error.get("reason", "stream refused")),
                            code=str(error.get("code", "error")))
                    while True:
                        line = reader.readline()
                        if not line:
                            raise ConnectionResetError("stream closed")
                        event = decode_line(line)
                        seq = int(event.get("seq", -1))
                        if seq < next_seq:
                            continue  # replay overlap; already delivered
                        next_seq = seq + 1
                        yield event
                        if event.get("terminal"):
                            return
            except OSError as exc:  # connect failed or the stream dropped
                reconnects += 1
                if reconnects > max_reconnects:
                    raise ServiceError(
                        f"stream for {job_id} lost after "
                        f"{max_reconnects} reconnects: {exc}",
                        code="unreachable") from exc
                time.sleep(self.retry_delay_s)

    def wait(self, job_id: str, timeout_s: Optional[float] = None,
             from_seq: int = 0) -> Dict[str, Any]:
        """Block until the job is terminal; returns its final status.

        Consumes the event stream (so heartbeats double as liveness
        checks) and enforces an optional overall wall-clock budget.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        for _event in self.stream(job_id, from_seq=from_seq):
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} not terminal within {timeout_s:g} s",
                    code="wait_timeout")
        return self.status(job_id)
