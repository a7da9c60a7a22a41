"""Memory-mapped, checksummed shard store for campaign results.

The on-disk layout is a directory of immutable shard pairs::

    shard-000000.rows     # header line + packed ROW_DTYPE records
    shard-000000.blobs    # header line + concatenated pickled outcomes
    shard-000001.rows
    ...

Each file opens with one JSON header line carrying a magic string, the
store schema version, the dtype fingerprint, the row/byte count and two
checksums over the payload — CRC-32 (cheap first line of defence) and
SHA-256 (authoritative) — mirroring the discipline of
:mod:`avipack.durability.journal`.  Publication is atomic (payload to a
temp file in the same directory, flush + ``fsync``, ``os.replace``),
the blob pool lands before its rows file (the rows file is the commit
point), and a shard that fails verification at open is renamed to a
``.quarantine`` sidecar and skipped — its rows are recomputed or
re-ingested from the journal, never trusted.

Readers memory-map the row payloads (``np.memmap`` past the header), so
ranking a million-candidate campaign touches only the columns it needs;
full outcome objects are unpickled one at a time, on demand, via
:meth:`ResultStore.fetch_outcome`.

Observability: ``results.rows_ingested``, ``results.shards_written``,
``results.blob_fetches`` and ``results.shards_quarantined`` named
counters in :mod:`avipack.perf`; each quarantine additionally bumps a
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
import pickle
import re
import tempfile
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

try:  # pragma: no cover - availability depends on the platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from .. import perf as _perf
from ..errors import InputError, ResultStoreError
from ..fingerprint import content_crc32, content_digest
from .schema import (
    DTYPE_FINGERPRINT,
    ROW_DTYPE,
    STORE_SCHEMA_VERSION,
    fill_row,
)

__all__ = ["DEFAULT_SHARD_ROWS", "ResultStore", "ResultStoreStats",
           "ResultStoreWriter", "next_shard_number", "publish_shard"]

#: Rows per sealed shard (the memmap granularity).  64k rows of the
#: packed dtype is a ~20 MB shard — large enough to amortize headers,
#: small enough that a quarantined shard loses bounded work.
DEFAULT_SHARD_ROWS = 65_536

#: Rows of the open shard's first buffer; it doubles up to
#: ``shard_rows`` as rows arrive.  A full 64k-row buffer is ~27 MB, and
#: allocating one per writer (one per served job) made a long-lived
#: process's RSS step up by that much whenever the allocator failed to
#: reuse a freed buffer, so peak RSS varied from run to run.
_FIRST_BUFFER_ROWS = 256

_ROWS_MAGIC = "avipack-results-rows/1"
_BLOBS_MAGIC = "avipack-results-blobs/1"
_SHARD_PATTERN = re.compile(r"^shard-(\d{6})\.(rows|blobs)$")
_LOCK_NAME = ".writer.lock"
_VERIFY_CHUNK = 1 << 20


@dataclasses.dataclass(frozen=True)
class ResultStoreStats:
    """What one run's store writer did (attached to the sweep report)."""

    #: Store directory the sweep ingested into.
    directory: str
    #: Rows this writer appended (fresh outcomes plus resume backfill).
    rows_added: int = 0
    #: Shards this writer sealed and published.
    shards_sealed: int = 0


def _lock_writer(stream: Any, directory: str) -> None:
    """Non-blocking advisory ``flock`` guarding one writer per store."""
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        return
    try:
        fcntl.flock(stream.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        stream.close()
        raise ResultStoreError(
            f"result store {directory} is locked by another writer "
            "(advisory flock contention): concurrent writers would "
            "race shard numbers; wait for the other process or give "
            "this run its own store directory") from exc


def _header_line(magic: str, n_rows: int, payload_crc32: str,
                 payload_sha256: str, n_bytes: int) -> bytes:
    header = {
        "magic": magic,
        "schema": STORE_SCHEMA_VERSION,
        "dtype": DTYPE_FINGERPRINT,
        "rows": n_rows,
        "nbytes": n_bytes,
        "crc32": payload_crc32,
        "sha256": payload_sha256,
    }
    return json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("ascii") + b"\n"


def _publish(path: str, header: bytes, payload: bytes) -> None:
    """Atomically publish one shard file (tmp + fsync + ``os.replace``)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".tmp.")
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(header)
            stream.write(payload)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def publish_shard(directory: str, number: int, rows: np.ndarray,
                  blobs: bytes) -> None:
    """Atomically publish one sealed shard pair (blobs first, rows last).

    The single publication path shared by :class:`ResultStoreWriter`
    and the retention compactor
    (:func:`avipack.retention.compact_store`): the blob pool lands
    before its rows file, so the rows file remains the commit point
    whoever is writing — a crash between the two leaves an orphan
    ``.blobs`` file that :meth:`ResultStore.open` never looks at.
    """
    rows_payload = rows.tobytes()
    base = os.path.join(directory, f"shard-{number:06d}")
    _publish(base + ".blobs",
             _header_line(_BLOBS_MAGIC, len(rows),
                          content_crc32(blobs),
                          content_digest(blobs),
                          len(blobs)),
             blobs)
    _publish(base + ".rows",
             _header_line(_ROWS_MAGIC, len(rows),
                          content_crc32(rows_payload),
                          content_digest(rows_payload),
                          len(rows_payload)),
             rows_payload)


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
        self._lock_stream = open(os.path.join(directory, _LOCK_NAME), "ab")
        _lock_writer(self._lock_stream, directory)
        self._next_shard = self._scan_next_shard()
        self._rows: Optional[np.ndarray] = None
        self._count = 0
        self._blobs = bytearray()

    def _scan_next_shard(self) -> int:
        return next_shard_number(self.directory)

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
            self._blobs = bytearray()
        elif self._count == len(self._rows):
            grown = np.zeros(min(2 * self._count, self.shard_rows),
                             dtype=ROW_DTYPE)
            grown[:self._count] = self._rows
            self._rows = grown
        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        offset = len(self._blobs)
        self._blobs += blob
        fill_row(self._rows, self._count, outcome,
                 blob_offset=offset, blob_length=len(blob),
                 blob_crc32=zlib.crc32(blob) & 0xFFFFFFFF)
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
        """Publish the open shard: blob pool first, rows file last."""
        if self._rows is None or self._count == 0:
            return
        number = self._next_shard
        self._next_shard += 1
        publish_shard(self.directory, number,
                      self._rows[:self._count], bytes(self._blobs))
        self._rows = None
        self._count = 0
        self._blobs = bytearray()
        self.shards_sealed += 1
        _perf.increment("results.shards_written")

    def flush(self) -> None:
        """Seal the partial shard now (durability checkpoint)."""
        self._seal()

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


class _Shard:
    """One verified, memory-mapped shard (reader side)."""

    def __init__(self, directory: str, name: str, n_rows: int,
                 header_bytes: int, row_base: int,
                 blobs_available: bool, blobs_header_bytes: int) -> None:
        self.name = name
        self.path = os.path.join(directory, name + ".rows")
        self.blob_path = os.path.join(directory, name + ".blobs")
        self.n_rows = n_rows
        #: Global row id of this shard's first row.
        self.row_base = row_base
        self.blobs_available = blobs_available
        self._blobs_header_bytes = blobs_header_bytes
        self.rows: np.ndarray = np.memmap(
            self.path, dtype=ROW_DTYPE, mode="r",
            offset=header_bytes, shape=(n_rows,))

    def read_blob(self, offset: int, length: int) -> bytes:
        with open(self.blob_path, "rb") as stream:
            stream.seek(self._blobs_header_bytes + offset)
            return stream.read(length)


def _verify_file(path: str, magic: str) -> Tuple[Dict[str, Any], int]:
    """Checksum-verify one shard file; returns (header, header_bytes).

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
            if header.get("schema") != STORE_SCHEMA_VERSION:
                raise ResultStoreError(
                    f"{path}: stale schema {header.get('schema')!r}",
                    reason="header")
            if header.get("dtype") != DTYPE_FINGERPRINT:
                raise ResultStoreError(f"{path}: dtype mismatch",
                                       reason="header")
            crc = 0
            sha = hashlib.sha256()
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


def _rename_aside(path: str) -> None:
    """Move a damaged file to its ``.quarantine`` name (rename only —
    no data is written, so durability ordering does not apply)."""
    if os.path.exists(path):
        os.replace(path, path + ".quarantine")


def _write_reason_sidecar(path: str, error: ResultStoreError) -> None:
    """Atomically publish ``<path>.quarantine.reason`` describing why."""
    sidecar = json.dumps({"file": os.path.basename(path),
                          "reason": error.reason,
                          "detail": str(error)}, sort_keys=True)
    tmp = f"{path}.reason.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as stream:
        stream.write(sidecar + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp, path + ".quarantine.reason")


def _quarantine(path: str,
                error: Optional[ResultStoreError] = None) -> None:
    """Rename a damaged file aside; record why in an atomic sidecar.

    ``error`` is the verification failure for the file itself; pass
    ``None`` for a companion file quarantined only because its partner
    failed (no sidecar — the partner's sidecar tells the story).
    """
    _rename_aside(path)
    if error is not None:
        _write_reason_sidecar(path, error)


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
    are materialised lazily per name and cached; full outcomes are
    fetched lazily per row from the blob pool.
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
            blobs_path = os.path.join(directory, name + ".blobs")
            try:
                header, header_bytes = _verify_file(rows_path,
                                                    _ROWS_MAGIC)
                n_rows = int(header["rows"])
                if n_rows < 0 or header["nbytes"] != \
                        n_rows * ROW_DTYPE.itemsize:
                    raise ResultStoreError(
                        f"{rows_path}: row count disagrees with "
                        "payload size", reason="header")
            except ResultStoreError as exc:
                _quarantine(rows_path, exc)
                _quarantine(blobs_path)
                quarantined.append(name + ".rows")
                reasons[name + ".rows"] = exc.reason
                _count_quarantine(exc.reason)
                continue
            blobs_available = True
            blobs_header_bytes = 0
            try:
                blob_header, blobs_header_bytes = _verify_file(
                    blobs_path, _BLOBS_MAGIC)
                if int(blob_header["rows"]) != n_rows:
                    raise ResultStoreError(
                        f"{blobs_path}: row count disagrees with "
                        "rows file", reason="header")
            except ResultStoreError as exc:
                # Rows stay queryable; only lazy fetches are lost.
                _quarantine(blobs_path, exc)
                quarantined.append(name + ".blobs")
                reasons[name + ".blobs"] = exc.reason
                _count_quarantine(exc.reason)
                blobs_available = False
            shards.append(_Shard(directory, name, n_rows, header_bytes,
                                 row_base, blobs_available,
                                 blobs_header_bytes))
            row_base += n_rows
        return cls(directory, shards, tuple(quarantined), reasons)

    @classmethod
    def live_fingerprints(cls, directory: str) -> Set[str]:
        """Fingerprints currently live in the store (empty if absent).

        The cheap existence probe the resume backfill uses; never
        raises for a missing or empty directory.
        """
        if not os.path.isdir(directory):
            return set()
        store = cls.open(directory)
        if store.n_rows == 0:
            return set()
        fps = store.column("fingerprint")[store.live_mask()]
        return {fp.decode("ascii") for fp in fps}

    # -- shape ---------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return sum(shard.n_rows for shard in self._shards)

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shards(self) -> Tuple[_Shard, ...]:
        """The verified shards backing this view, in row order.

        Reader internals (name, ``row_base``, memory-mapped ``rows``,
        ``read_blob``) exposed for the retention compactor
        (:func:`avipack.retention.compact_store`), which must copy
        live rows and their blob bytes shard by shard.
        """
        return tuple(self._shards)

    # -- columnar access -----------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """One typed column across every shard, as a contiguous copy.

        Numeric and boolean columns are cached (they are the sort keys
        and masks every query touches repeatedly, at 1-8 bytes per
        row).  Wide byte-string columns — ``label``, ``fingerprint``,
        the axis strings — are concatenated fresh on each call and
        released with the caller, so a report over a million-row store
        never pins tens of megabytes of strings; use :meth:`gather`
        when only a few rows of such a column are needed.
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
                [np.asarray(shard.rows[name])
                 for shard in self._shards])
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
            yield np.asarray(shard.rows[name])

    def gather(self, name: str, row_ids: Any) -> np.ndarray:
        """Column values at the given global row ids only.

        Reads straight from the per-shard memory maps without
        materializing (or caching) the full column — the top-k path
        for wide byte columns, where the ranking needs 20 labels out
        of a million rows.
        """
        if name not in ROW_DTYPE.names:
            raise InputError(
                f"unknown column {name!r}; known: "
                f"{', '.join(ROW_DTYPE.names)}")
        ids = np.asarray(row_ids, dtype=np.int64)
        out = np.empty(len(ids), dtype=ROW_DTYPE[name])
        for position, row_id in enumerate(ids):
            shard, local = self._locate(int(row_id))
            out[position] = shard.rows[local][name]
        return out

    def live_mask(self) -> np.ndarray:
        """True for the *latest* row of each fingerprint.

        A resumed or re-ingested campaign appends corrected rows for
        fingerprints it already holds; queries must see exactly one row
        per candidate — the newest — which mirrors the journal replay's
        latest-wins semantics.

        Deduplication runs on 64-bit FNV hashes of the fingerprints (8
        bytes per row instead of the 40-byte strings, computed shard by
        shard off the memory maps); only rows sharing a hash — actual
        duplicates, or the odd collision — are re-checked against their
        exact bytes.
        """
        if self._live is None:
            n = self.n_rows
            mask = np.zeros(n, dtype=bool)
            if n:
                hashes = self._fingerprint_hashes()
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

    def _fingerprint_hashes(self) -> np.ndarray:
        """Vectorized FNV-1a of every row's fingerprint, shard by shard."""
        hashes = np.empty(self.n_rows, dtype=np.uint64)
        offset = np.uint64(0xCBF29CE484222325)
        prime = np.uint64(0x100000001B3)
        base = 0
        for shard in self._shards:
            fps = np.ascontiguousarray(
                np.asarray(shard.rows["fingerprint"]))
            words = fps.view(np.uint64).reshape(len(fps), -1)
            mixed = np.full(len(fps), offset)
            for column in range(words.shape[1]):
                mixed ^= words[:, column]
                mixed *= prime
            hashes[base:base + len(fps)] = mixed
            base += len(fps)
        return hashes

    def row(self, row_id: int) -> np.void:
        """One full row record by global row id (copied)."""
        shard, local = self._locate(row_id)
        return shard.rows[local].copy()

    def _locate(self, row_id: int) -> Tuple[_Shard, int]:
        if row_id < 0 or row_id >= self.n_rows:
            raise InputError(
                f"row id {row_id} outside [0, {self.n_rows})")
        position = int(np.searchsorted(self._bases, row_id,
                                       side="right")) - 1
        shard = self._shards[position]
        return shard, row_id - shard.row_base

    # -- lazy blobs ----------------------------------------------------------

    def fetch_outcome(self, row_id: int) -> Any:
        """Unpickle the full outcome behind one row (lazy, verified).

        Raises :class:`~avipack.errors.ResultStoreError` when the
        shard's blob pool was quarantined or the blob's checksum no
        longer matches the row.
        """
        shard, local = self._locate(row_id)
        if not shard.blobs_available:
            raise ResultStoreError(
                f"blob pool for {shard.name} was quarantined; row "
                f"{row_id} has columns only — recompute or re-ingest "
                "from the journal to restore payloads")
        record = shard.rows[local]
        blob = shard.read_blob(int(record["blob_offset"]),
                               int(record["blob_length"]))
        if len(blob) != int(record["blob_length"]) \
                or (zlib.crc32(blob) & 0xFFFFFFFF) \
                != int(record["blob_crc32"]):
            raise ResultStoreError(
                f"blob checksum mismatch for row {row_id} in "
                f"{shard.name}")
        _perf.increment("results.blob_fetches")
        return pickle.loads(blob)
