"""Columnar row schema for the campaign result store.

One sweep outcome — a :class:`~avipack.sweep.runner.CandidateResult` or
:class:`~avipack.sweep.runner.CandidateFailure` — flattens to one row of
:data:`ROW_DTYPE`, a packed numpy structured dtype.  Everything ranking,
histogramming and report rendering needs lives in typed columns
(fingerprint, margins, cost rank, thermal headroom, status flags,
timings, the candidate axes); everything heavy (the full outcome object
with its recovery trails, tracebacks and perf deltas) is pickled into
the shard's side blob pool and fetched lazily by row id.

The dtype is part of the on-disk contract: :data:`DTYPE_FINGERPRINT`
is stamped into every shard header, and a reader refuses (quarantines)
shards whose layout does not match byte for byte — a schema change must
bump :data:`STORE_SCHEMA_VERSION` rather than reinterpret old bytes.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from ..fingerprint import stable_fingerprint

__all__ = [
    "AXIS_FIELDS",
    "DTYPE_FINGERPRINT",
    "KIND_COMPLETED",
    "KIND_FAILED",
    "KIND_TIMEOUT",
    "ROW_DTYPE",
    "STORE_SCHEMA_VERSION",
    "fill_row",
    "outcome_kind",
]

#: Bump when :data:`ROW_DTYPE` changes; readers quarantine other versions.
STORE_SCHEMA_VERSION = 1

#: Outcome kinds, mirroring the journal's record vocabulary.
KIND_COMPLETED = 0
KIND_FAILED = 1
KIND_TIMEOUT = 2

#: The board-temperature limit [degC] behind ``thermal_headroom_c``
#: (kept equal to :attr:`CandidateResult.thermal_headroom_c`).
_BOARD_LIMIT_C = 85.0

#: One outcome per row, packed little-endian.  Margin columns are NaN
#: for failures; blob columns locate the pickled outcome in the shard's
#: side pool.
ROW_DTYPE = np.dtype([
    ("index", "<i8"),
    ("fingerprint", "S40"),
    ("kind", "u1"),
    ("compliant", "?"),
    ("degraded", "?"),
    ("recovered", "?"),
    # Retired: always False, kept so existing shards stay readable.
    ("batched", "?"),
    ("cost_rank", "<f8"),
    ("worst_board_c", "<f8"),
    ("thermal_headroom_c", "<f8"),
    ("fundamental_hz", "<f8"),
    ("fatigue_margin", "<f8"),
    ("deflection_margin", "<f8"),
    ("mtbf_hours", "<f8"),
    ("n_violations", "<u2"),
    ("n_recovery_trails", "<u2"),
    ("elapsed_s", "<f8"),
    ("worker_pid", "<i8"),
    ("cache_hits", "<i4"),
    ("cache_misses", "<i4"),
    ("cache_corrupt", "<i4"),
    ("power_per_module", "<f8"),
    ("n_modules", "<i4"),
    ("cooling", "S32"),
    ("tim_name", "S48"),
    ("form_factor", "S16"),
    ("series_fraction", "<f8"),
    ("temperature_category", "S8"),
    ("vibration_curve", "S8"),
    ("n_components", "<i4"),
    ("long_case", "?"),
    ("label", "S80"),
    ("stage", "S16"),
    ("error_type", "S40"),
    ("blob_offset", "<i8"),
    ("blob_length", "<i8"),
    ("blob_crc32", "<u4"),
])

#: Stable fingerprint of the dtype layout, stamped into shard headers.
DTYPE_FINGERPRINT = stable_fingerprint(ROW_DTYPE.descr)

#: Candidate-axis columns :func:`avipack.results.query.axis_marginals`
#: accepts, in :class:`~avipack.sweep.space.Candidate` field order.
AXIS_FIELDS: Tuple[str, ...] = (
    "power_per_module", "n_modules", "cooling", "tim_name",
    "form_factor", "series_fraction", "temperature_category",
    "vibration_curve", "n_components", "long_case",
)

#: Margin-summary keys copied verbatim into same-named f8 columns.
_MARGIN_FIELDS = ("fundamental_hz", "fatigue_margin",
                  "deflection_margin", "mtbf_hours")


def outcome_kind(outcome: Any) -> int:
    """Classify one outcome with the journal's kind vocabulary."""
    if getattr(outcome, "error_type", None) == "WatchdogTimeout":
        return KIND_TIMEOUT
    if hasattr(outcome, "error_type"):
        return KIND_FAILED
    return KIND_COMPLETED


def _truncated(text: str, width: int) -> bytes:
    """UTF-8 encode ``text`` clipped to a fixed column width."""
    return text.encode("utf-8", errors="replace")[:width]


def fill_row(rows: np.ndarray, position: int, outcome: Any,
             blob_offset: int, blob_length: int,
             blob_crc32: int) -> None:
    """Flatten one outcome into ``rows[position]``.

    ``rows`` must have dtype :data:`ROW_DTYPE` (typically the writer's
    pre-allocated shard buffer); the blob triplet locates the pickled
    outcome in the shard's side pool.
    """
    row = rows[position]
    candidate = outcome.candidate
    kind = outcome_kind(outcome)
    failed = kind != KIND_COMPLETED

    row["index"] = outcome.index
    row["fingerprint"] = outcome.fingerprint.encode("ascii")
    row["kind"] = kind
    row["compliant"] = bool(outcome.compliant)
    row["degraded"] = bool(getattr(outcome, "degraded", False))
    row["recovered"] = bool(getattr(outcome, "recovered", False))
    row["batched"] = False
    row["elapsed_s"] = outcome.elapsed_s
    row["worker_pid"] = outcome.worker_pid
    row["n_recovery_trails"] = len(getattr(outcome, "recovery", ()))
    row["blob_offset"] = blob_offset
    row["blob_length"] = blob_length
    row["blob_crc32"] = blob_crc32

    if failed:
        row["cost_rank"] = np.nan
        row["worst_board_c"] = np.nan
        row["thermal_headroom_c"] = np.nan
        for name in _MARGIN_FIELDS:
            row[name] = np.nan
        row["n_violations"] = 0
        row["cache_hits"] = 0
        row["cache_misses"] = 0
        row["cache_corrupt"] = 0
        row["stage"] = _truncated(getattr(outcome, "stage", ""), 16)
        row["error_type"] = _truncated(outcome.error_type, 40)
    else:
        row["cost_rank"] = outcome.cost_rank
        row["worst_board_c"] = outcome.worst_board_c
        # Stored rather than derived at query time; the float64
        # subtraction here is bit-identical to the dataclass property.
        row["thermal_headroom_c"] = _BOARD_LIMIT_C - outcome.worst_board_c
        margins = outcome.margins
        for name in _MARGIN_FIELDS:
            value = margins.get(name)
            row[name] = np.nan if value is None else float(value)
        row["n_violations"] = len(outcome.violations)
        row["cache_hits"] = outcome.cache_hits
        row["cache_misses"] = outcome.cache_misses
        row["cache_corrupt"] = getattr(outcome, "cache_corrupt", 0)
        row["stage"] = b""
        row["error_type"] = b""

    cooling = candidate.cooling
    cooling_text = getattr(cooling, "value", None)
    if not isinstance(cooling_text, str):
        cooling_text = str(cooling)
    row["power_per_module"] = candidate.power_per_module
    row["n_modules"] = candidate.n_modules
    row["cooling"] = _truncated(cooling_text, 32)
    row["tim_name"] = _truncated(candidate.tim_name, 48)
    row["form_factor"] = _truncated(candidate.form_factor, 16)
    row["series_fraction"] = candidate.series_fraction
    row["temperature_category"] = _truncated(
        candidate.temperature_category, 8)
    row["vibration_curve"] = _truncated(candidate.vibration_curve, 8)
    row["n_components"] = candidate.n_components
    row["long_case"] = bool(candidate.long_case)
    row["label"] = _truncated(candidate.label, 80)
