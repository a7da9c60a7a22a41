"""Memory-mapped, checksummed shard store for campaign results.

The on-disk layout is a directory of immutable shard files::

    shard-000000.rows     # header line + packed SHARD_DTYPE records
    shard-000001.rows
    ...

Each file opens with one JSON header line carrying a magic string, the
store schema version, the dtype fingerprint, the row/byte count, the
shard's string tables and two checksums over the tables and the
payload — CRC-32 (cheap first line of defence) and SHA-256
(authoritative) — mirroring the discipline of
:mod:`avipack.durability.journal`.  Publication is atomic
(:func:`avipack.durability.files.atomic_write`), and a shard that fails
verification at open is renamed to a ``.quarantine`` sidecar and
skipped — its rows are recomputed or re-ingested from the journal,
never trusted.

The store holds typed rows only.  A campaign's full outcome objects
live in its write-ahead journal; ``shard-*.blobs`` files left by older
writers are ignored here and deleted by
:func:`avipack.retention.compact_store`.

Schema 2 packs each logical row into 148 bytes
(:data:`~avipack.results.schema.SHARD_DTYPE`): raw fingerprint bytes,
no stored label, and the string columns coded as one-byte indices into
the header's tables.  Schema-1 shards (434-byte rows) stay readable
through their own layout, so a store may mix both; readers decode every
shard to the same logical columns.

Readers memory-map the row payloads (``np.memmap`` past the header), so
ranking a million-candidate campaign touches only the columns it needs.

Observability: ``results.rows_ingested``, ``results.shards_written``
and ``results.shards_quarantined`` named counters in
:mod:`avipack.perf`; each quarantine additionally bumps a
per-reason counter (``results.quarantined_header`` /
``results.quarantined_checksum`` / ``results.quarantined_truncation``)
and writes a ``<file>.quarantine.reason`` sidecar recording *why* the
file was set aside, so an operator triaging a damaged store can tell a
torn write from bit rot without re-running verification.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import zlib
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from .. import perf as _perf
from ..durability.files import atomic_write, open_locked, quarantine
from ..errors import InputError, ResultStoreError
from .schema import (
    DTYPE_FINGERPRINT,
    ROW_DTYPE,
    SCHEMA1_DTYPE,
    SCHEMA1_DTYPE_FINGERPRINT,
    SHARD_DTYPE,
    STORE_SCHEMA_VERSION,
    fill_row,
    pack_rows,
    string_tables,
    unpack_column,
)

__all__ = ["DEFAULT_SHARD_ROWS", "ResultStore", "ResultStoreStats",
           "ResultStoreWriter", "next_shard_number", "publish_shard"]

#: Rows per sealed shard (the memmap granularity).  64k rows of the
#: packed schema-2 dtype is a ~9.7 MB shard — large enough to amortize
#: headers, small enough that a quarantined shard loses bounded work.
DEFAULT_SHARD_ROWS = 65_536

#: Rows of the open shard's first buffer; it doubles up to
#: ``shard_rows`` as rows arrive.  The buffer holds logical rows
#: (:data:`~avipack.results.schema.ROW_DTYPE`, packed only at
#: publication), so a full 64k-row buffer is ~27 MB, and allocating one
#: per writer (one per served job) made a long-lived process's RSS step
#: up by that much whenever the allocator failed to reuse a freed
#: buffer, so peak RSS varied from run to run.
_FIRST_BUFFER_ROWS = 256

_ROWS_MAGIC = "avipack-results-rows/1"
_SHARD_PATTERN = re.compile(r"^shard-(\d{6})\.(rows|blobs)$")
_LOCK_NAME = ".writer.lock"
_VERIFY_CHUNK = 1 << 20

#: On-disk row layout and its fingerprint per readable store schema.
#: Schema 1 is read only; every shard is published at schema 2.
_LAYOUTS = {1: (SCHEMA1_DTYPE, SCHEMA1_DTYPE_FINGERPRINT),
            STORE_SCHEMA_VERSION: (SHARD_DTYPE, DTYPE_FINGERPRINT)}


@dataclasses.dataclass(frozen=True)
class ResultStoreStats:
    """What one run's store writer did (attached to the sweep report)."""

    #: Store directory the sweep ingested into.
    directory: str
    #: Rows this writer appended (fresh outcomes plus resume backfill).
    rows_added: int = 0
    #: Shards this writer sealed and published.
    shards_sealed: int = 0


def _open_writer_lock(directory: str) -> Any:
    """Take the store's advisory writer lock: one writer per store.

    Held by :class:`ResultStoreWriter` and by
    :func:`avipack.retention.compact_store`; close the returned stream
    to release it.
    """
    refusal = ResultStoreError(
        f"result store {directory} is locked by another writer "
        "(advisory flock contention): concurrent writers would "
        "race shard numbers; wait for the other process or give "
        "this run its own store directory")
    return open_locked(os.path.join(directory, _LOCK_NAME), refusal)


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def next_shard_number(directory: str) -> int:
    """First unused shard number (quarantined names count as used).

    Quarantined names stay reserved so a rewrite can never publish a
    fresh shard under a number whose damaged predecessor might later be
    un-quarantined by an operator.
    """
    highest = -1
    for name in os.listdir(directory):
        match = _SHARD_PATTERN.match(
            name[:-len(".quarantine")]
            if name.endswith(".quarantine") else name)
        if match:
            highest = max(highest, int(match.group(1)))
    return highest + 1


def publish_shard(directory: str, number: int, rows: np.ndarray) -> int:
    """Atomically publish logical ``rows`` as schema-2 shard ``number``.

    The single packing and publication path shared by
    :class:`ResultStoreWriter` and the retention compactor
    (:func:`avipack.retention.compact_store`).  Returns the number of
    shards published: rows whose string columns hold more distinct
    values than one shard's tables can code are split in halves across
    consecutive shard numbers, in row order.
    """
    packed = pack_rows(rows)
    if packed is None:
        half = len(rows) // 2
        published = publish_shard(directory, number, rows[:half])
        return published + publish_shard(directory, number + published,
                                         rows[half:])
    records, tables = packed
    payload = records.tobytes()
    checked = _canonical(tables)
    sha = hashlib.sha256(checked)
    sha.update(payload)
    header = _canonical({
        "magic": _ROWS_MAGIC,
        "schema": STORE_SCHEMA_VERSION,
        "dtype": DTYPE_FINGERPRINT,
        "rows": len(records),
        "nbytes": len(payload),
        "strings": tables,
        "crc32": f"{zlib.crc32(payload, zlib.crc32(checked)):08x}",
        "sha256": sha.hexdigest(),
    })
    atomic_write(os.path.join(directory, f"shard-{number:06d}.rows"),
                 header + b"\n", payload)
    return 1


class ResultStoreWriter:
    """Append outcomes to a store directory as sealed, immutable shards.

    Usable as a context manager; :meth:`close` seals any partial shard.
    One writer per directory at a time (advisory lock); shard numbers
    continue past whatever the directory already holds, so a resumed
    campaign appends rather than rewrites.
    """

    def __init__(self, directory: str,
                 shard_rows: int = DEFAULT_SHARD_ROWS) -> None:
        if shard_rows < 1:
            raise InputError("shard_rows must be >= 1")
        self.directory = directory
        self.shard_rows = shard_rows
        self.rows_added = 0
        self.shards_sealed = 0
        #: Fingerprints appended through this writer (dedup aid for the
        #: resume backfill pass).
        self.added_fingerprints: Set[str] = set()
        os.makedirs(directory, exist_ok=True)
        self._lock_stream = _open_writer_lock(directory)
        self._next_shard = next_shard_number(directory)
        self._rows: Optional[np.ndarray] = None
        self._count = 0

    def __enter__(self) -> "ResultStoreWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def add(self, outcome: Any) -> None:
        """Flatten one outcome into the open shard (seals when full)."""
        if self._lock_stream is None:
            raise InputError("result store writer is closed")
        if self._rows is None:
            self._rows = np.zeros(min(self.shard_rows, _FIRST_BUFFER_ROWS),
                                  dtype=ROW_DTYPE)
            self._count = 0
        elif self._count == len(self._rows):
            grown = np.zeros(min(2 * self._count, self.shard_rows),
                             dtype=ROW_DTYPE)
            grown[:self._count] = self._rows
            self._rows = grown
        fill_row(self._rows, self._count, outcome)
        self._count += 1
        self.rows_added += 1
        self.added_fingerprints.add(outcome.fingerprint)
        _perf.increment("results.rows_ingested")
        if self._count >= self.shard_rows:
            self._seal()

    def add_many(self, outcomes: Iterable[Any]) -> None:
        for outcome in outcomes:
            self.add(outcome)

    def _seal(self) -> None:
        """Publish the open shard."""
        if self._rows is None or self._count == 0:
            return
        published = publish_shard(self.directory, self._next_shard,
                                  self._rows[:self._count])
        self._next_shard += published
        self._rows = None
        self._count = 0
        self.shards_sealed += published
        _perf.increment("results.shards_written", published)

    def close(self) -> None:
        """Seal any partial shard and release the writer lock."""
        if self._lock_stream is None:
            return
        try:
            self._seal()
        finally:
            self._lock_stream.close()
            self._lock_stream = None

    def stats(self) -> ResultStoreStats:
        return ResultStoreStats(directory=self.directory,
                                rows_added=self.rows_added,
                                shards_sealed=self.shards_sealed)


#: Hex digit value per ASCII code (0 for a non-hex byte).
_NIBBLES = np.zeros(256, dtype=np.uint8)
_NIBBLES[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = \
    np.arange(16, dtype=np.uint8)


class _Shard:
    """One verified, memory-mapped shard (reader side)."""

    def __init__(self, path: str, header: Dict[str, Any],
                 header_bytes: int, row_base: int) -> None:
        self.path = path
        self.n_rows = int(header["rows"])
        #: Store schema the shard was written at.
        self.schema: int = header["schema"]
        #: Global row id of this shard's first row.
        self.row_base = row_base
        #: The on-disk records, in the shard schema's layout.
        self.rows: np.ndarray = np.memmap(
            path, dtype=_LAYOUTS[self.schema][0], mode="r",
            offset=header_bytes, shape=(self.n_rows,))
        self._tables = (string_tables(header["strings"])
                        if self.schema == STORE_SCHEMA_VERSION else None)

    def _decode(self, rows: np.ndarray, name: str) -> np.ndarray:
        if self._tables is None:
            return np.asarray(rows[name])
        return unpack_column(rows, self._tables, name)

    def column(self, name: str, index: Any = None) -> np.ndarray:
        """Logical values of column ``name`` at local rows ``index``
        (every row when ``None``)."""
        return self._decode(self.rows if index is None else self.rows[index],
                            name)

    def logical_rows(self, index: Any) -> np.ndarray:
        """The rows at ``index`` as logical records for
        :func:`publish_shard`, which does not store ``label``, so it is
        left empty here."""
        rows = self.rows[index]
        out = np.zeros(len(rows), dtype=ROW_DTYPE)
        for name in ROW_DTYPE.names:
            if name != "label":
                out[name] = self._decode(rows, name)
        return out

    def fingerprint_keys(self) -> np.ndarray:
        """Each row's leading 8 raw fingerprint bytes as one ``<u8``."""
        if self._tables is not None:
            raw = np.ascontiguousarray(self.rows["fingerprint"])
            head = raw.view(np.uint8).reshape(self.n_rows, 20)[:, :8]
        else:
            text = np.ascontiguousarray(self.rows["fingerprint"])
            digits = _NIBBLES[text.view(np.uint8).reshape(
                self.n_rows, 40)[:, :16]]
            head = (digits[:, 0::2] << 4) | digits[:, 1::2]
        return np.ascontiguousarray(head).view("<u8").reshape(-1)


def _verify_file(path: str, magic: str) -> Tuple[Dict[str, Any], int]:
    """Checksum-verify one shard file; returns (header, header_bytes).

    The checksums cover a schema-2 shard's string tables (canonical
    JSON) and then its payload, and a schema-1 shard's payload alone.
    Raises :class:`ResultStoreError` on any damage — the caller
    quarantines and moves on.
    """
    try:
        with open(path, "rb") as stream:
            line = stream.readline()
            try:
                header = json.loads(line.decode("ascii"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise ResultStoreError(
                    f"{path}: unparseable header: {exc}",
                    reason="header") from exc
            if not isinstance(header, dict) \
                    or header.get("magic") != magic:
                raise ResultStoreError(f"{path}: wrong magic",
                                       reason="header")
            schema = header.get("schema")
            if type(schema) is not int or schema not in _LAYOUTS:
                raise ResultStoreError(
                    f"{path}: unreadable schema {schema!r}",
                    reason="header")
            dtype, fingerprint = _LAYOUTS[schema]
            if header.get("dtype") != fingerprint:
                raise ResultStoreError(f"{path}: dtype mismatch",
                                       reason="header")
            rows = header.get("rows")
            if type(rows) is not int or rows < 0 \
                    or header.get("nbytes") != rows * dtype.itemsize:
                raise ResultStoreError(
                    f"{path}: row count disagrees with payload size",
                    reason="header")
            # The writer's checksums cover the tables, so tables that
            # verify are well formed.
            checked = (_canonical(header.get("strings"))
                       if schema == STORE_SCHEMA_VERSION else b"")
            crc = zlib.crc32(checked)
            sha = hashlib.sha256(checked)
            n_bytes = 0
            while True:
                chunk = stream.read(_VERIFY_CHUNK)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                sha.update(chunk)
                n_bytes += len(chunk)
    except OSError as exc:
        raise ResultStoreError(f"cannot read {path}: {exc}",
                               reason="truncation") from exc
    if n_bytes != header.get("nbytes"):
        raise ResultStoreError(
            f"{path}: payload is {n_bytes} bytes, header says "
            f"{header.get('nbytes')}", reason="truncation")
    if f"{crc & 0xFFFFFFFF:08x}" != header.get("crc32"):
        raise ResultStoreError(f"{path}: crc32 mismatch",
                               reason="checksum")
    if sha.hexdigest() != header.get("sha256"):
        raise ResultStoreError(f"{path}: sha256 mismatch",
                               reason="checksum")
    return header, len(line)


def _count_quarantine(reason: str) -> None:
    """Bump the total and the per-reason quarantine counters.

    The per-reason names are spelled out literally so the registry
    test can tie each declared counter to its live increment site.
    """
    _perf.increment("results.shards_quarantined")
    if reason == "checksum":
        _perf.increment("results.quarantined_checksum")
    elif reason == "header":
        _perf.increment("results.quarantined_header")
    elif reason == "truncation":
        _perf.increment("results.quarantined_truncation")


class ResultStore:
    """Read-only columnar view over every intact shard of a directory.

    Open with :meth:`open`; shards failing verification are quarantined
    (renamed, counted, skipped) rather than trusted or fatal.  Columns
    are materialised lazily per name and cached.
    """

    def __init__(self, directory: str, shards: List[_Shard],
                 quarantined: Tuple[str, ...],
                 quarantine_reasons: Optional[Dict[str, str]] = None
                 ) -> None:
        self.directory = directory
        self._shards = shards
        #: File names moved to ``.quarantine`` by this open.
        self.quarantined = quarantined
        #: File name -> damage class (``header`` / ``checksum`` /
        #: ``truncation``) for each quarantined file, mirroring the
        #: on-disk ``.quarantine.reason`` sidecars.
        self.quarantine_reasons: Dict[str, str] = \
            dict(quarantine_reasons or {})
        self._columns: Dict[str, np.ndarray] = {}
        self._live: Optional[np.ndarray] = None
        self._bases = np.array([shard.row_base for shard in shards],
                               dtype=np.int64)

    # -- construction --------------------------------------------------------

    @classmethod
    def open(cls, directory: str) -> "ResultStore":
        """Verify and map every shard under ``directory``.

        Raises :class:`~avipack.errors.ResultStoreError` only when the
        directory itself is missing; per-shard damage is quarantined.
        ``.blobs`` files that older writers published are ignored.
        """
        if not os.path.isdir(directory):
            raise ResultStoreError(
                f"result store directory not found: {directory}")
        names = sorted(
            match.group(0)[:-len(".rows")]
            for match in (
                _SHARD_PATTERN.match(entry)
                for entry in os.listdir(directory))
            if match and match.group(2) == "rows")
        shards: List[_Shard] = []
        quarantined: List[str] = []
        reasons: Dict[str, str] = {}
        row_base = 0
        for name in names:
            rows_path = os.path.join(directory, name + ".rows")
            try:
                header, header_bytes = _verify_file(rows_path,
                                                    _ROWS_MAGIC)
            except ResultStoreError as exc:
                quarantine(rows_path, {"file": name + ".rows",
                                       "reason": exc.reason,
                                       "detail": str(exc)})
                quarantined.append(name + ".rows")
                reasons[name + ".rows"] = exc.reason
                _count_quarantine(exc.reason)
                continue
            shards.append(_Shard(rows_path, header, header_bytes,
                                 row_base))
            row_base += shards[-1].n_rows
        return cls(directory, shards, tuple(quarantined), reasons)

    @classmethod
    def live_fingerprints(cls, directory: str) -> Dict[str, int]:
        """Fingerprint -> candidate index of each live row (empty if
        the store is absent).

        The cheap probe the resume backfill uses to add the restored
        outcomes the store lacks or holds under another index; never
        raises for a missing or empty directory.
        """
        if not os.path.isdir(directory):
            return {}
        store = cls.open(directory)
        if store.n_rows == 0:
            return {}
        live = store.live_mask()
        return {fp.decode("ascii"): int(index) for fp, index in zip(
            store.column("fingerprint")[live], store.column("index")[live])}

    # -- shape ---------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return sum(shard.n_rows for shard in self._shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shards(self) -> Tuple[_Shard, ...]:
        """The verified shards backing this view, in row order.

        Reader internals (``path``, ``row_base``, memory-mapped ``rows``)
        exposed for the retention compactor
        (:func:`avipack.retention.compact_store`), which must copy
        live rows shard by shard.
        """
        return tuple(self._shards)

    # -- columnar access -----------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One typed column across every shard, as a contiguous copy.

        Numeric and boolean columns are cached (they are the sort keys
        and masks every query touches repeatedly, at 1-8 bytes per
        row).  Wide byte-string columns — ``label``, ``fingerprint``,
        the axis strings — are decoded fresh on each call and released
        with the caller, so a report over a million-row store never pins
        tens of megabytes of strings.  Schema-2 shards rebuild ``label``
        row by row, so use :meth:`gather` when only a few rows of such a
        column are needed.
        """
        if name not in ROW_DTYPE.names:
            raise InputError(
                f"unknown column {name!r}; known: "
                f"{', '.join(ROW_DTYPE.names)}")
        cached = self._columns.get(name)
        if cached is not None:
            return cached
        if self._shards:
            values = np.concatenate(
                [shard.column(name) for shard in self._shards])
        else:
            values = np.empty(0, dtype=ROW_DTYPE[name])
        if ROW_DTYPE[name].kind != "S":
            self._columns[name] = values
        return values

    def iter_column(self, name: str) -> Iterator[np.ndarray]:
        """Per-shard views of one column, straight off the memory maps.

        For streaming aggregations (per-axis marginals, notably) that
        must not pay a full-campaign concatenation.
        """
        if name not in ROW_DTYPE.names:
            raise InputError(
                f"unknown column {name!r}; known: "
                f"{', '.join(ROW_DTYPE.names)}")
        for shard in self._shards:
            yield shard.column(name)

    def gather(self, name: str, row_ids: Any) -> np.ndarray:
        """Column values at the given global row ids only.

        Reads and decodes only those rows of the per-shard memory maps,
        without materializing (or caching) the full column — the top-k
        path for wide byte columns, where the ranking needs 20 labels
        out of a million rows.
        """
        if name not in ROW_DTYPE.names:
            raise InputError(
                f"unknown column {name!r}; known: "
                f"{', '.join(ROW_DTYPE.names)}")
        ids = np.asarray(row_ids, dtype=np.int64).reshape(-1)
        out = np.empty(len(ids), dtype=ROW_DTYPE[name])
        if not len(ids):
            return out
        if ids.min() < 0 or ids.max() >= self.n_rows:
            raise InputError(
                f"row ids outside [0, {self.n_rows}): "
                f"{ids[(ids < 0) | (ids >= self.n_rows)].tolist()}")
        owners = np.searchsorted(self._bases, ids, side="right") - 1
        for position in np.unique(owners).tolist():
            shard = self._shards[position]
            hit = owners == position
            out[hit] = shard.column(name, ids[hit] - shard.row_base)
        return out

    def live_mask(self) -> np.ndarray:
        """True for the *latest* row of each fingerprint.

        A resumed or re-ingested campaign appends corrected rows for
        fingerprints it already holds; queries must see exactly one row
        per candidate — the newest — which mirrors the journal replay's
        latest-wins semantics.

        Deduplication runs on each fingerprint's leading 8 raw bytes
        (one ``<u8`` per row, read shard by shard off the memory maps,
        alike for schema-1 hex and schema-2 raw fingerprints); only rows
        sharing those bytes — actual duplicates, or the odd collision —
        are re-checked against their exact fingerprints.
        """
        if self._live is None:
            n = self.n_rows
            mask = np.zeros(n, dtype=bool)
            if n:
                hashes = np.concatenate([shard.fingerprint_keys()
                                         for shard in self._shards])
                order = np.argsort(hashes, kind="stable")
                sorted_hashes = hashes[order]
                new_run = np.empty(n, dtype=bool)
                new_run[0] = True
                np.not_equal(sorted_hashes[1:], sorted_hashes[:-1],
                             out=new_run[1:])
                last_in_run = np.empty(n, dtype=bool)
                last_in_run[:-1] = new_run[1:]
                last_in_run[-1] = True
                singleton = new_run & last_in_run
                mask[order[singleton]] = True
                shared = order[~singleton]
                if len(shared):
                    latest: Dict[bytes, int] = {}
                    fps = self.gather("fingerprint", shared)
                    for row_id, fp in zip(shared.tolist(), fps.tolist()):
                        if row_id > latest.get(fp, -1):
                            latest[fp] = row_id
                    mask[list(latest.values())] = True
            self._live = mask
        return self._live

    def row(self, row_id: int) -> np.void:
        """One full logical row record by global row id (copied)."""
        shard, local = self._locate(row_id)
        record = np.zeros(1, dtype=ROW_DTYPE)
        for name in ROW_DTYPE.names:
            record[name] = shard.column(name, [local])
        return record[0]

    def _locate(self, row_id: int) -> Tuple[_Shard, int]:
        if row_id < 0 or row_id >= self.n_rows:
            raise InputError(
                f"row id {row_id} outside [0, {self.n_rows})")
        position = int(np.searchsorted(self._bases, row_id,
                                       side="right")) - 1
        shard = self._shards[position]
        return shard, row_id - shard.row_base
