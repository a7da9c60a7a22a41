"""Columnar row schema for the campaign result store.

One sweep outcome — a :class:`~avipack.sweep.runner.CandidateResult` or
:class:`~avipack.sweep.runner.CandidateFailure` — flattens to one
logical row of :data:`ROW_DTYPE`.  Everything ranking, histogramming
and report rendering needs lives in typed columns (fingerprint, margins,
cost rank, thermal headroom, status flags, timings, the candidate axes).
The full outcome object, with its recovery trails, tracebacks and perf
deltas, lives in the campaign's write-ahead journal, not in the store.

The logical row is what :func:`fill_row` writes and what the store's
column readers return.  On disk, a schema-2 shard packs it into the
148-byte :data:`SHARD_DTYPE`:

* ``fingerprint`` is stored as its 20 raw bytes, not 40 hex characters;
* ``label`` is not stored: :func:`unpack_column` rebuilds it from the
  axis columns with :func:`avipack.labels.candidate_label`, the format
  :attr:`Candidate.label <avipack.sweep.space.Candidate.label>` uses;
* the :data:`CODED_FIELDS` strings are one-byte indices into the
  shard's string tables, which its checksummed header carries;
* ``worker_pid`` is narrowed to ``<i4``.

Schema-1 shards, written before the packing, hold the logical row plus
four retired columns (:data:`SCHEMA1_DTYPE`, 434 bytes).  They stay
readable and are rewritten at schema 2 by
:func:`avipack.retention.compact_store`.

Each layout is part of the on-disk contract: its fingerprint is stamped
into every shard header, and a reader refuses (quarantines) shards
whose layout does not match byte for byte — a schema change must bump
:data:`STORE_SCHEMA_VERSION` rather than reinterpret old bytes.
"""

from __future__ import annotations

import binascii
import re
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..durability.audit import AUDIT_BOARD_LIMIT_C
from ..durability.journal import outcome_kind
from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..labels import candidate_label, cooling_name

__all__ = [
    "AXIS_FIELDS",
    "CODED_FIELDS",
    "DTYPE_FINGERPRINT",
    "KIND_COMPLETED",
    "KIND_FAILED",
    "KIND_TIMEOUT",
    "ROW_DTYPE",
    "SCHEMA1_DTYPE",
    "SCHEMA1_DTYPE_FINGERPRINT",
    "SHARD_DTYPE",
    "STORE_SCHEMA_VERSION",
    "fill_row",
    "pack_rows",
    "string_tables",
    "unpack_column",
]

#: Bump when :data:`SHARD_DTYPE` changes; readers quarantine versions
#: they have no layout for.
STORE_SCHEMA_VERSION = 2

#: Outcome kinds, mirroring the journal's record vocabulary.
KIND_COMPLETED = 0
KIND_FAILED = 1
KIND_TIMEOUT = 2

#: :func:`~avipack.durability.journal.outcome_kind` -> ``kind`` column.
_KIND_CODES = {"completed": KIND_COMPLETED, "failed": KIND_FAILED,
               "timeout": KIND_TIMEOUT}

#: Schema-1 columns no writer fills any more: ``batched`` was always
#: False, and the ``blob_*`` columns located a pickled outcome in a
#: ``.blobs`` pool the store no longer writes.
_RETIRED_FIELDS = ("batched", "blob_offset", "blob_length", "blob_crc32")

#: The schema-1 on-disk row (read only), packed little-endian.
SCHEMA1_DTYPE = np.dtype([
    ("index", "<i8"),
    ("fingerprint", "S40"),
    ("kind", "u1"),
    ("compliant", "?"),
    ("degraded", "?"),
    ("recovered", "?"),
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

#: Layout fingerprint stamped into schema-1 shard headers.
SCHEMA1_DTYPE_FINGERPRINT = stable_fingerprint(SCHEMA1_DTYPE.descr)

#: One outcome per logical row: the schema-1 row without its retired
#: columns.  Margin columns are NaN for failures.
ROW_DTYPE = np.dtype([(name, SCHEMA1_DTYPE[name])
                      for name in SCHEMA1_DTYPE.names
                      if name not in _RETIRED_FIELDS])

#: String columns a schema-2 shard stores as indices into its tables.
CODED_FIELDS: Tuple[str, ...] = (
    "cooling", "tim_name", "form_factor", "temperature_category",
    "vibration_curve", "stage", "error_type",
)

#: The schema-2 on-disk row, packed little-endian: 148 bytes.  The
#: module and component counts keep the logical ``<i4``: a broken
#: design point (say ``n_modules=-1``) is recorded as a failure, so its
#: row must hold any count the logical row holds.
SHARD_DTYPE = np.dtype([
    ("index", "<i8"),
    ("fingerprint", "V20"),
    ("kind", "u1"),
    ("compliant", "?"),
    ("degraded", "?"),
    ("recovered", "?"),
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
    ("worker_pid", "<i4"),
    ("cache_hits", "<i4"),
    ("cache_misses", "<i4"),
    ("cache_corrupt", "<i4"),
    ("power_per_module", "<f8"),
    ("n_modules", "<i4"),
    ("cooling", "u1"),
    ("tim_name", "u1"),
    ("form_factor", "u1"),
    ("series_fraction", "<f8"),
    ("temperature_category", "u1"),
    ("vibration_curve", "u1"),
    ("n_components", "<i4"),
    ("long_case", "?"),
    ("stage", "u1"),
    ("error_type", "u1"),
])

#: Layout fingerprint stamped into schema-2 shard headers.
DTYPE_FINGERPRINT = stable_fingerprint(SHARD_DTYPE.descr)

#: Range of the ``worker_pid`` column, which :data:`SHARD_DTYPE`
#: stores narrower than the logical row (process ids fit).
_PID_RANGE = np.iinfo(SHARD_DTYPE["worker_pid"])

#: Distinct strings one shard's table can index with a ``u1`` code.
_TABLE_LIMIT = 256

#: Candidate-axis columns :func:`avipack.results.query.axis_marginals`
#: accepts, in :class:`~avipack.sweep.space.Candidate` field order.
AXIS_FIELDS: Tuple[str, ...] = (
    "power_per_module", "n_modules", "cooling", "tim_name",
    "form_factor", "series_fraction", "temperature_category",
    "vibration_curve", "n_components", "long_case",
)

#: The axis columns ``label`` is rebuilt from, in
#: :func:`~avipack.labels.candidate_label` argument order.
_LABEL_FIELDS = ("power_per_module", "n_modules", "form_factor",
                 "cooling", "tim_name", "series_fraction")

#: Margin-summary keys copied verbatim into same-named f8 columns.
_MARGIN_FIELDS = ("fundamental_hz", "fatigue_margin",
                  "deflection_margin", "mtbf_hours")

_HEX_FINGERPRINT = re.compile(r"[0-9a-f]{40}")


def _truncated(text: str, width: int) -> bytes:
    """UTF-8 encode ``text`` clipped to a fixed column width."""
    return text.encode("utf-8", errors="replace")[:width]


def _require_pid_fit(low: Any, high: Any) -> None:
    """Refuse worker pids, bounded by ``low`` and ``high``, that would
    wrap in the narrowed column."""
    if low < _PID_RANGE.min or high > _PID_RANGE.max:
        raise InputError(
            f"worker_pid outside [{_PID_RANGE.min}, {_PID_RANGE.max}] "
            "cannot be stored in the result store")


def fill_row(rows: np.ndarray, position: int, outcome: Any) -> None:
    """Flatten one outcome into ``rows[position]``.

    ``rows`` must have dtype :data:`ROW_DTYPE` (typically the writer's
    shard buffer).  Raises :class:`~avipack.errors.InputError`, with
    ``rows[position]`` left free for another outcome, when the outcome
    cannot be stored exactly: a fingerprint that is not 40 lowercase hex
    characters, or a worker pid outside its packed column's range.
    """
    fingerprint = outcome.fingerprint
    if not isinstance(fingerprint, str) \
            or not _HEX_FINGERPRINT.fullmatch(fingerprint):
        raise InputError(
            f"fingerprint {fingerprint!r} is not 40 lowercase hex "
            "characters; the result store keeps its 20 raw bytes")
    row = rows[position]
    candidate = outcome.candidate
    kind = _KIND_CODES[outcome_kind(outcome)]
    failed = kind != KIND_COMPLETED

    row["index"] = outcome.index
    row["fingerprint"] = fingerprint.encode("ascii")
    row["kind"] = kind
    row["compliant"] = bool(outcome.compliant)
    row["degraded"] = bool(getattr(outcome, "degraded", False))
    row["recovered"] = bool(getattr(outcome, "recovered", False))
    row["elapsed_s"] = outcome.elapsed_s
    row["worker_pid"] = outcome.worker_pid
    row["n_recovery_trails"] = len(getattr(outcome, "recovery", ()))

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
        row["thermal_headroom_c"] = AUDIT_BOARD_LIMIT_C - outcome.worst_board_c
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

    row["power_per_module"] = candidate.power_per_module
    row["n_modules"] = candidate.n_modules
    row["cooling"] = _truncated(cooling_name(candidate.cooling), 32)
    row["tim_name"] = _truncated(candidate.tim_name, 48)
    row["form_factor"] = _truncated(candidate.form_factor, 16)
    row["series_fraction"] = candidate.series_fraction
    row["temperature_category"] = _truncated(
        candidate.temperature_category, 8)
    row["vibration_curve"] = _truncated(candidate.vibration_curve, 8)
    row["n_components"] = candidate.n_components
    row["long_case"] = bool(candidate.long_case)
    row["label"] = _truncated(candidate.label, 80)
    _require_pid_fit(row["worker_pid"], row["worker_pid"])


def pack_rows(rows: np.ndarray
              ) -> Optional[Tuple[np.ndarray, Dict[str, List[str]]]]:
    """Logical ``rows`` as schema-2 records plus their string tables.

    Returns ``None`` when a :data:`CODED_FIELDS` column holds more
    distinct strings than a one-byte code can index; the caller splits
    the rows.  Only :func:`avipack.results.store.publish_shard` packs.
    """
    packed = np.zeros(len(rows), dtype=SHARD_DTYPE)
    tables: Dict[str, List[str]] = {}
    for name in CODED_FIELDS:
        values, codes = np.unique(rows[name], return_inverse=True)
        if len(values) > _TABLE_LIMIT:
            return None
        packed[name] = codes.reshape(-1)
        tables[name] = [value.decode("utf-8", errors="surrogateescape")
                        for value in values.tolist()]
    hex_text = np.ascontiguousarray(rows["fingerprint"]).tobytes()
    try:
        raw = binascii.unhexlify(hex_text)
    except binascii.Error:
        raw = b""
    if binascii.hexlify(raw) != hex_text:
        raise InputError("a row fingerprint is not 40 lowercase hex "
                         "characters")
    packed["fingerprint"] = np.frombuffer(raw, dtype="V20")
    if len(rows):
        _require_pid_fit(rows["worker_pid"].min(), rows["worker_pid"].max())
    for name in SHARD_DTYPE.names:
        if name != "fingerprint" and name not in tables:
            packed[name] = rows[name]
    return packed, tables


def string_tables(tables: Dict[str, List[str]]) -> Dict[str, np.ndarray]:
    """A shard header's string tables as logical-dtype lookup arrays."""
    return {name: np.array(
        [value.encode("utf-8", errors="surrogateescape")
         for value in tables[name]], dtype=ROW_DTYPE[name])
        for name in CODED_FIELDS}


def unpack_column(rows: np.ndarray, tables: Dict[str, np.ndarray],
                  name: str) -> np.ndarray:
    """Logical values of column ``name`` of schema-2 ``rows``.

    ``tables`` is the shard's :func:`string_tables`.  ``label`` is
    rebuilt row by row, so gather the few rows a report shows first.
    """
    if name == "fingerprint":
        raw = np.ascontiguousarray(rows["fingerprint"]).tobytes()
        return np.frombuffer(binascii.hexlify(raw),
                             dtype=ROW_DTYPE["fingerprint"])
    if name == "label":
        axes = [unpack_column(rows, tables, field).tolist()
                for field in _LABEL_FIELDS]
        return np.array(
            [_truncated(candidate_label(
                power, modules, form_factor.decode("utf-8", "replace"),
                cooling.decode("utf-8", "replace"),
                tim_name.decode("utf-8", "replace"), series), 80)
             for power, modules, form_factor, cooling, tim_name, series
             in zip(*axes)], dtype=ROW_DTYPE["label"])
    if name in CODED_FIELDS:
        return tables[name][rows[name]]
    return np.asarray(rows[name], dtype=ROW_DTYPE[name])
