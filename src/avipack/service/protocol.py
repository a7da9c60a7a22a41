"""Wire protocol of the sweep job service: JSON lines over a socket.

One request per line, one JSON document per line, UTF-8, ``\\n``
terminated.  Every request carries an ``op``; every response carries
``ok`` plus either the op's payload or a structured
``{"error": {"code", "reason"}}`` — the code vocabulary is the
machine-readable contract (:data:`ERROR_CODES`) the client branches on.
A ``stream`` request switches the connection into event mode: the
server replays the job's buffered events from the requested sequence
number, then keeps appending live events until the job reaches a
terminal state (events with ``"terminal": true``).

The module is deliberately transport-free and asyncio-free: pure
encode/decode/validate helpers shared by the asyncio server and the
blocking client, so both sides disagree about nothing.
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Tuple

from ..errors import ServiceError
from ..fingerprint import stable_fingerprint
from ..sweep.space import Candidate, DesignSpace

__all__ = [
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "REQUEST_OPS",
    "TERMINAL_EVENTS",
    "ProtocolError",
    "build_candidates",
    "decode_line",
    "encode_line",
    "error_response",
    "normalize_submission",
    "submission_fingerprint",
    "validate_request",
]

#: Requests the server understands.
REQUEST_OPS = ("submit", "status", "stream", "cancel", "results", "jobs",
               "stats", "ping", "retention", "shutdown")

#: Machine-readable rejection/failure codes a response may carry.
ERROR_CODES = (
    "bad_request",      # unparseable line or malformed request shape
    "unknown_op",       # op outside REQUEST_OPS
    "unknown_job",      # job_id the server has never seen
    "invalid_space",    # submission names unknown fields / empty axes
    "job_too_large",    # candidate count above the admission bound
    "queue_full",       # bounded queue at capacity
    "quota_exceeded",   # per-client active-job quota reached
    "draining",         # server is draining; admission is closed
    "disk_low",         # disk budget exhausted; admission is degraded
    "duplicate",        # informational: submission matched an active job
    "replay_gap",       # requested event seq outside the replay buffer
    "not_cancellable",  # job already terminal
    "no_results",       # job has no columnar result store (yet)
    "io_error",         # the server could not persist the request
)

#: Event types that end a stream (the job reached a final state).
TERMINAL_EVENTS = ("completed", "failed", "cancelled")

#: Hard per-line bound — a submission above this is malformed, not big.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Scalar JSON types allowed as axis values / candidate fields.
_SCALAR_TYPES = (str, int, float, bool)

_CANDIDATE_FIELDS = tuple(f.name for f in dataclass_fields(Candidate))


class ProtocolError(ServiceError):
    """A request (or a wire line) violates the protocol contract."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message, code=code)

    def __reduce__(self) -> Tuple[Any, ...]:
        return (self.__class__,
                (self.args[0] if self.args else "", self.code))


# -- wire encoding -----------------------------------------------------------


def encode_line(payload: Dict[str, Any]) -> bytes:
    """Encode one message as a compact, newline-terminated JSON line."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Decode one wire line; raises :class:`ProtocolError` on damage."""
    if len(raw) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line exceeds {MAX_LINE_BYTES} bytes", code="bad_request")
    try:
        message = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"unparseable line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def error_response(code: str, reason: str) -> Dict[str, Any]:
    """The uniform rejection shape every error path responds with."""
    return {"ok": False, "error": {"code": code, "reason": reason}}


# -- request validation ------------------------------------------------------


def validate_request(message: Dict[str, Any]
                     ) -> Tuple[str, Dict[str, Any]]:
    """Check the request envelope; returns ``(op, params)``.

    Op-specific payload validation happens in the handlers (and, for
    submissions, in :func:`normalize_submission`); this gate only
    guarantees the envelope is sane.
    """
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request has no 'op' field")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; known: {', '.join(REQUEST_OPS)}",
            code="unknown_op")
    if op in ("status", "stream", "cancel", "results"):
        job_id = message.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(f"{op} requires a 'job_id' string")
    if op == "stream":
        from_seq = message.get("from_seq", 0)
        if not isinstance(from_seq, int) or from_seq < 0:
            raise ProtocolError("'from_seq' must be a non-negative int")
    if op == "results":
        k = message.get("k", 20)
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProtocolError("'k' must be a positive int")
    return op, message


# -- submissions -------------------------------------------------------------


def _validate_axes(axes: Any) -> Dict[str, List[Any]]:
    if not isinstance(axes, dict) or not axes:
        raise ProtocolError("'axes' must be a non-empty object",
                            code="invalid_space")
    # Values stay *lists* (the JSON-native sequence): manifests round-
    # trip submissions through JSON, and the dedup fingerprint must be
    # identical before and after that trip.
    normalized: Dict[str, List[Any]] = {}
    for name in sorted(axes):
        values = axes[name]
        if not isinstance(name, str) or name not in _CANDIDATE_FIELDS:
            raise ProtocolError(
                f"unknown candidate field {name!r}; known: "
                f"{', '.join(sorted(_CANDIDATE_FIELDS))}",
                code="invalid_space")
        if not isinstance(values, (list, tuple)) or not values:
            raise ProtocolError(
                f"axis {name!r} must be a non-empty array",
                code="invalid_space")
        for value in values:
            if not isinstance(value, _SCALAR_TYPES):
                raise ProtocolError(
                    f"axis {name!r} carries a non-scalar value "
                    f"{value!r}", code="invalid_space")
        normalized[name] = list(values)
    return normalized


def _validate_candidates(entries: Any) -> List[Dict[str, Any]]:
    if not isinstance(entries, list) or not entries:
        raise ProtocolError("'candidates' must be a non-empty array",
                            code="invalid_space")
    normalized: List[Dict[str, Any]] = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ProtocolError(
                f"candidate #{position} must be an object",
                code="invalid_space")
        for name, value in entry.items():
            if name not in _CANDIDATE_FIELDS:
                raise ProtocolError(
                    f"candidate #{position} names unknown field "
                    f"{name!r}", code="invalid_space")
            if not isinstance(value, _SCALAR_TYPES):
                raise ProtocolError(
                    f"candidate #{position} field {name!r} carries a "
                    f"non-scalar value {value!r}", code="invalid_space")
        normalized.append({name: entry[name] for name in sorted(entry)})
    return normalized


def normalize_submission(params: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a ``submit`` payload into its canonical form.

    The canonical form — sorted axes, sorted candidate fields, explicit
    defaults — is what :func:`submission_fingerprint` hashes, so two
    semantically identical submissions deduplicate regardless of key
    order on the wire.
    """
    axes = params.get("axes")
    candidates = params.get("candidates")
    if (axes is None) == (candidates is None):
        raise ProtocolError(
            "submit requires exactly one of 'axes' (a design-space "
            "grid) or 'candidates' (an explicit list)",
            code="invalid_space")
    sample = params.get("sample")
    if sample is not None and (not isinstance(sample, int) or sample < 1):
        raise ProtocolError("'sample' must be a positive int",
                            code="invalid_space")
    seed = params.get("seed", 0)
    if not isinstance(seed, int):
        raise ProtocolError("'seed' must be an int", code="invalid_space")
    priority = params.get("priority", 0)
    if not isinstance(priority, int):
        raise ProtocolError("'priority' must be an int")
    deadline_s = params.get("deadline_s")
    if deadline_s is not None and (
            not isinstance(deadline_s, (int, float)) or deadline_s <= 0):
        raise ProtocolError("'deadline_s' must be a positive number")
    client = params.get("client", "anonymous")
    if not isinstance(client, str) or not client:
        raise ProtocolError("'client' must be a non-empty string")
    submission: Dict[str, Any] = {
        "client": client,
        "priority": priority,
        "deadline_s": (float(deadline_s) if deadline_s is not None
                       else None),
        "seed": seed,
        "sample": sample,
    }
    if axes is not None:
        submission["axes"] = _validate_axes(axes)
    else:
        if sample is not None:
            raise ProtocolError(
                "'sample' only applies to 'axes' submissions",
                code="invalid_space")
        submission["candidates"] = _validate_candidates(candidates)
    submission["n_candidates"] = _submission_size(submission)
    return submission


def _submission_size(submission: Dict[str, Any]) -> int:
    if "candidates" in submission:
        return len(submission["candidates"])
    size = 1
    for values in submission["axes"].values():
        size *= len(values)
    if submission["sample"] is not None:
        return min(submission["sample"], size)
    return size


def submission_fingerprint(submission: Dict[str, Any]) -> str:
    """Stable content fingerprint of a normalized submission.

    Hashes only the fields that define the *work* (axes/candidates,
    sample, seed) — not priority, deadline or client — so the same
    space submitted twice deduplicates even across tenants.
    """
    work = {"axes": submission.get("axes"),
            "candidates": submission.get("candidates"),
            "sample": submission.get("sample"),
            "seed": submission.get("seed")}
    return stable_fingerprint(work)


def build_candidates(submission: Dict[str, Any]) -> List[Candidate]:
    """Realise a normalized submission into its candidate list.

    Raises the library's usual :class:`~avipack.errors.InputError`
    family for combinations only the model layer can reject; the
    server converts those into a failed job, never a dead server.
    """
    if "candidates" in submission:
        return [Candidate(**entry) for entry in submission["candidates"]]
    space = DesignSpace(axes=dict(submission["axes"]))
    if submission["sample"] is not None:
        return list(space.sample(submission["sample"],
                                 seed=submission["seed"]))
    return list(space.grid())
