"""Write-ahead journal for design-space sweeps (append-only JSONL).

A multi-hour sweep that dies to SIGKILL, OOM or power loss should cost
the campaign the in-flight candidates, not the finished ones.
:class:`SweepJournal` is the durability contract behind
:meth:`avipack.sweep.SweepRunner.run` (``journal_path=...``) and
:meth:`~avipack.sweep.SweepRunner.resume`:

* every record is one JSON line carrying a ``body`` plus two checksums
  over the canonical body encoding — CRC-32 (cheap first line of
  defence) and SHA-256 (authoritative) — and the journal
  ``schema_version``;
* appends are atomic at the record level: the encoded line is written
  in a single call on an append-mode descriptor, flushed and
  ``fsync``'d before the runner proceeds, so after a crash the journal
  is a prefix of intact records plus at most one torn tail line;
* replay (:func:`replay_journal`) never raises on damage and never
  silently trusts it: a truncated, bit-flipped, stale-schema,
  undecompressible or unpicklable record is moved to a ``.quarantine``
  sidecar and its candidate is simply recomputed by the resume.

Record kinds: ``plan`` (the pickled candidate list and its space
fingerprint — what makes ``resume(journal_path)`` self-contained),
``dispatched`` (a candidate handed to a worker; the sweep runner no
longer writes it, since the plan lists every candidate, but replay
still accepts it), the outcome kinds
``completed`` / ``failed`` / ``timeout``, and ``checkpoint`` — one
record folding an entire verified journal prefix (plan, latest outcome
per fingerprint, in-flight markers and the sequence cursor) written by
:func:`avipack.retention.compact_journal`.  A compacted journal is the
checkpoint record plus whatever live tail has been appended since;
replay applies the checkpoint first, then the tail records override it
latest-wins, exactly as the uncompacted record stream would.  Outcomes
are keyed by the candidate's content
:attr:`~avipack.sweep.space.Candidate.fingerprint`, *not* its list
index, so a resume survives re-ordering or extension of the candidate
space.

The payloads are pickles of the library's own records, compressed by
zlib primed with a pinned preset dictionary
(:data:`~avipack.durability._payload_dict.SCHEMA3_ZDICT`, schema 3):
every line shares one copy of the pickle opcodes, module paths, class
and field names it would otherwise repeat, so an outcome payload takes
roughly 25–35% of the bytes schema 2's unprimed zlib gave it.
Schema-1 (plain pickle) and schema-2 (unprimed zlib) journals still
replay, resume, ingest and compact, and each line is decoded by its own
``schema_version``.  A different dictionary is a new schema version;
the old dictionary stays as the decoder of the journals written with it.
The checksums protect against corruption in transit and at rest, not
against an adversary who can rewrite the journal *and* its checksums —
treat journal files with the same trust as the repository they live in.

Fault sites (see :mod:`avipack.resilience.faults`):
``durability.journal_torn_write`` truncates the encoded record before
it reaches the descriptor and ``durability.journal_bitflip`` flips one
bit in it — both scoped per record sequence number, so a seeded plan
corrupts a deterministic subset of records.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import DurabilityError, InputError, JournalError
from ..fingerprint import content_crc32, content_digest
from ..resilience.faults import corrupts as _corrupts
from ._payload_dict import SCHEMA3_ZDICT
from .files import atomic_write, open_locked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweep.runner import CandidateOutcome
    from ..sweep.space import Candidate

__all__ = ["SCHEMA_VERSION", "JournalReplay", "QuarantinedRecord",
           "SweepJournal", "encode_record", "outcome_kind",
           "replay_journal"]

#: Bump when the record encoding changes; replay quarantines any
#: version it has no decoder for rather than guessing at its layout.
SCHEMA_VERSION = 3

#: The preset-dictionary flag (FDICT) of a zlib stream header's FLG byte.
_FDICT = 0x20

#: Record kinds carrying a pickled outcome payload.
_OUTCOME_KINDS = ("completed", "failed", "timeout")


class _DamagedRecord(ValueError):
    """Internal verification signal; always caught by replay, never
    surfaced (a damaged record is quarantined, not raised)."""


def _inflate_whole(inflater: Any, data: bytes) -> bytes:
    """Run ``inflater`` over ``data``, which must be exactly one stream.

    zlib stops quietly at a truncated stream and ignores bytes past its
    end, so both are refused here.
    """
    plain = inflater.decompress(data)
    if not inflater.eof:
        raise _DamagedRecord("payload stream is truncated")
    if inflater.unused_data:
        raise _DamagedRecord("payload has bytes past its stream end")
    return plain


def _inflate(data: bytes) -> bytes:
    """Decode a schema-2 payload: one whole unprimed zlib stream."""
    return _inflate_whole(zlib.decompressobj(), data)


def _inflate_primed(data: bytes) -> bytes:
    """Decode a schema-3 payload: one whole zlib stream primed with
    :data:`SCHEMA3_ZDICT`.

    zlib also accepts a stream written without a dictionary, so that is
    refused here too.
    """
    if len(data) < 2 or not data[1] & _FDICT:
        raise _DamagedRecord("payload lacks the preset-dictionary flag")
    return _inflate_whole(zlib.decompressobj(zdict=SCHEMA3_ZDICT), data)


#: Payload decoder per readable ``schema_version``: 1 wrote plain
#: pickles, 2 unprimed zlib, 3 zlib primed with :data:`SCHEMA3_ZDICT`.
_PAYLOAD_DECODERS = {1: lambda data: data, 2: _inflate,
                     3: _inflate_primed}


def _open_locked(path: str):
    """Open a journal for append under its advisory writer lock.

    Two processes appending to one journal interleave records — a
    corruption the checksums can detect but never repair — so the
    second writer is refused eagerly with :class:`DurabilityError`.
    """
    return open_locked(path, DurabilityError(
        f"journal {path} is locked by another writer (advisory "
        "flock contention): concurrent appends would interleave "
        "records; wait for the other process to close the journal "
        "or give this run its own --journal path"))


def outcome_kind(outcome: "CandidateOutcome") -> str:
    """``"completed"``, ``"failed"`` or ``"timeout"`` — the one
    classification of an outcome, shared by the journal record kind,
    the result store's ``kind`` column and the service's events."""
    if not hasattr(outcome, "error_type"):
        return "completed"
    if outcome.error_type == "WatchdogTimeout":
        return "timeout"
    return "failed"


def _canonical(body: Dict[str, Any]) -> str:
    """The exact byte form (as str) the checksums are computed over."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _encode_payload(value: Any) -> str:
    deflater = zlib.compressobj(zdict=SCHEMA3_ZDICT)
    data = deflater.compress(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    return base64.b64encode(data + deflater.flush()).decode()


def _decode_payload(text: str,
                    schema_version: int = SCHEMA_VERSION) -> Any:
    return pickle.loads(_PAYLOAD_DECODERS[schema_version](
        base64.b64decode(text.encode())))


def encode_record(kind: str, seq: int, fields: Dict[str, Any]) -> bytes:
    """Encode one journal record line (body + CRC-32 + SHA-256 + ``\\n``).

    The single encoding shared by live appends
    (:meth:`SweepJournal._append`) and the compaction checkpoint writer
    (:func:`avipack.retention.compact_journal`), so a checkpoint record
    verifies under exactly the same discipline as every other line.
    """
    body: Dict[str, Any] = {"schema_version": SCHEMA_VERSION,
                            "seq": seq, "kind": kind}
    body.update(fields)
    canonical = _canonical(body)
    record = json.dumps({"body": body,
                         "crc32": content_crc32(canonical),
                         "sha256": content_digest(canonical)},
                        sort_keys=True)
    return record.encode("utf-8") + b"\n"


class SweepJournal:
    """Append-only, checksummed, fsync'd sweep journal.

    Use :meth:`create` to start a fresh journal (writes the ``plan``
    record) or :meth:`append_to` to continue an existing one (the
    resume path).  The journal is a context manager; :meth:`close` is
    idempotent.
    """

    def __init__(self, path: str, stream, next_seq: int = 0) -> None:
        self.path = path
        self._stream = stream
        self._seq = next_seq

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, path: str, candidates: Tuple["Candidate", ...],
               space_fingerprint: str = "") -> "SweepJournal":
        """Start a fresh journal at ``path`` and write its plan record.

        The journal is opened append-mode and locked *before* any
        existing content is truncated, so creating over a journal
        another process is still writing raises
        :class:`~avipack.errors.DurabilityError` instead of silently
        destroying the live journal.
        """
        stream = _open_locked(path)
        # Anything failing past the lock — truncation on an exotic
        # filesystem, an unpicklable candidate in the plan record, a
        # full disk at the first fsync — must release the advisory
        # lock and the descriptor, or the journal path stays locked
        # (and the fd leaked) until process exit.
        try:
            stream.truncate(0)
            journal = cls(path, stream)
            journal.record_plan(candidates, space_fingerprint)
        except BaseException:
            stream.close()
            raise
        return journal

    @classmethod
    def append_to(cls, path: str, next_seq: int = 0) -> "SweepJournal":
        """Open an existing journal for appending (resume path).

        Raises :class:`~avipack.errors.DurabilityError` when another
        process holds the journal's advisory lock.  A torn last line
        (the crash left no newline) is ended first, so the first
        appended record starts a line of its own instead of being
        glued to the damaged bytes and quarantined with them.
        """
        if not os.path.exists(path):
            raise JournalError(f"journal not found: {path}")
        stream = _open_locked(path)
        try:
            if os.path.getsize(path):
                with open(path, "rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    if tail.read(1) != b"\n":
                        stream.write(b"\n")
        except BaseException:
            stream.close()
            raise
        return cls(path, stream, next_seq)

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Flush and close the journal stream (idempotent)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # -- record writers ------------------------------------------------------

    def record_plan(self, candidates: Tuple["Candidate", ...],
                    space_fingerprint: str = "") -> None:
        """Journal the candidate set a resume will need to re-dispatch."""
        self._append("plan",
                     n_candidates=len(candidates),
                     space_fingerprint=space_fingerprint,
                     candidates=_encode_payload(tuple(candidates)))

    def record_dispatched(self, index: int,
                          candidate: "Candidate") -> None:
        """Journal a candidate entering evaluation (in-flight marker)."""
        self._append("dispatched", index=index,
                     fingerprint=candidate.fingerprint)

    def record_outcome(self, outcome: "CandidateOutcome") -> None:
        """Journal a finished candidate as it arrives from a worker."""
        self._append(outcome_kind(outcome), index=outcome.index,
                     fingerprint=outcome.fingerprint,
                     payload=_encode_payload(outcome))

    def _append(self, kind: str, **fields: Any) -> None:
        """Checksum, encode and durably append one record.

        The write is a single call on an append-mode descriptor
        followed by flush + ``fsync``: after any crash the journal
        holds every acknowledged record intact plus at most one torn
        tail, which replay quarantines.
        """
        if self._stream is None:
            raise InputError("journal is closed")
        data = encode_record(kind, self._seq, fields)
        if _corrupts("durability.journal_torn_write", ("journal", self._seq)):
            data = data[:max(1, (2 * len(data)) // 3)]
        elif _corrupts("durability.journal_bitflip", ("journal", self._seq)):
            flipped = bytearray(data)
            flipped[len(flipped) // 2] ^= 0x08
            data = bytes(flipped)
        self._seq += 1
        self._stream.write(data)
        self._stream.flush()
        os.fsync(self._stream.fileno())


@dataclass(frozen=True)
class QuarantinedRecord:
    """One journal line that failed verification, preserved as evidence."""

    line_number: int
    reason: str
    raw: bytes


@dataclass
class JournalReplay:
    """Everything an intact-prefix replay of one journal recovered."""

    path: str
    #: Candidate set from the latest intact plan record (None if no
    #: plan record survived — resuming is then impossible).
    candidates: Optional[Tuple["Candidate", ...]] = None
    space_fingerprint: str = ""
    #: Latest intact outcome per candidate fingerprint.
    outcomes: Dict[str, "CandidateOutcome"] = field(default_factory=dict)
    #: Latest dispatched index per fingerprint (in-flight markers).
    dispatched: Dict[str, int] = field(default_factory=dict)
    n_records: int = 0
    next_seq: int = 0
    quarantined: Tuple[QuarantinedRecord, ...] = ()
    #: With ``keep_payloads``, the encoded text of the latest plan's
    #: candidate list if its record is at :data:`SCHEMA_VERSION`.
    candidates_payload: Optional[str] = None
    #: With ``keep_payloads``, the encoded text of each latest outcome
    #: whose record is at :data:`SCHEMA_VERSION`.
    outcome_payloads: Dict[str, str] = field(default_factory=dict)

    @property
    def n_quarantined(self) -> int:
        """Records that failed verification and were set aside."""
        return len(self.quarantined)


def _verify_line(line: bytes) -> Dict[str, Any]:
    """Decode and checksum-verify one line; raises _DamagedRecord."""
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _DamagedRecord(f"unparseable record: {exc}") from exc
    if (not isinstance(envelope, dict)
            or not isinstance(envelope.get("body"), dict)):
        raise _DamagedRecord("record has no body")
    body = envelope["body"]
    canonical = _canonical(body)
    if envelope.get("crc32") != content_crc32(canonical):
        raise _DamagedRecord("crc32 mismatch")
    if envelope.get("sha256") != content_digest(canonical):
        raise _DamagedRecord("sha256 mismatch")
    version = body.get("schema_version")
    if type(version) is not int or version not in _PAYLOAD_DECODERS:
        raise _DamagedRecord(
            f"stale schema_version {version!r} "
            f"(expected one of {sorted(_PAYLOAD_DECODERS)})")
    if not isinstance(body.get("kind"), str):
        raise _DamagedRecord("record has no kind")
    return body


def _write_quarantine(path: str,
                      records: Tuple[QuarantinedRecord, ...]) -> None:
    """Atomically (re)write the quarantine sidecar for one replay."""
    lines = [json.dumps({"line_number": record.line_number,
                         "reason": record.reason,
                         "raw": base64.b64encode(record.raw).decode()},
                        sort_keys=True)
             for record in records]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _replay_outcome(replay: JournalReplay, fingerprint: str, payload: str,
                    version: int, keep: bool) -> None:
    """Decode one outcome payload into ``replay``, latest-wins."""
    replay.outcomes[fingerprint] = _decode_payload(payload, version)
    if keep:
        replay.outcome_payloads[fingerprint] = payload
    else:
        replay.outcome_payloads.pop(fingerprint, None)


def replay_journal(path: str, quarantine_path: Optional[str] = None,
                   write_quarantine: bool = True, *,
                   keep_payloads: bool = False) -> JournalReplay:
    """Verify and replay a journal; damage is quarantined, never fatal.

    Every line is independently decoded and checksum-verified; lines
    that fail (torn tail, bit flips, unknown ``schema_version``,
    undecompressible or unpicklable payloads) become
    :class:`QuarantinedRecord` entries — written to ``quarantine_path``
    (default ``<path>.quarantine``) as a JSONL sidecar when
    ``write_quarantine`` is set — and replay continues.  Only a
    missing/unreadable journal *file* raises
    :class:`~avipack.errors.JournalError`.

    ``keep_payloads`` also keeps the encoded text of every current-schema
    payload it decoded (:attr:`JournalReplay.outcome_payloads`), so a
    compaction need not encode the same objects again.
    """
    try:
        with open(path, "rb") as stream:
            raw = stream.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    replay = JournalReplay(path=path)
    quarantined: List[QuarantinedRecord] = []
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    for line_number, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            body = _verify_line(line)
            kind = body["kind"]
            version = body["schema_version"]
            keep = keep_payloads and version == SCHEMA_VERSION
            if kind in ("plan", "checkpoint"):
                replay.candidates = tuple(
                    _decode_payload(body["candidates"], version))
                replay.space_fingerprint = str(
                    body.get("space_fingerprint", ""))
                replay.candidates_payload = (body["candidates"] if keep
                                             else None)
            if kind == "dispatched":
                replay.dispatched[str(body["fingerprint"])] = \
                    int(body["index"])
            elif kind in _OUTCOME_KINDS:
                _replay_outcome(replay, str(body["fingerprint"]),
                                body["payload"], version, keep)
            elif kind == "checkpoint":
                # One folded prefix (see avipack.retention): apply it
                # wholesale, then let any live-tail records appended
                # after compaction override entries latest-wins, just
                # as the uncompacted stream would have.
                for fp, payload in body["outcomes"].items():
                    _replay_outcome(replay, str(fp), payload, version,
                                    keep)
                for fp, index in body["dispatched"].items():
                    replay.dispatched[str(fp)] = int(index)
                replay.n_records += int(body.get("n_folded", 1)) - 1
            elif kind != "plan":
                raise _DamagedRecord(f"unknown record kind {kind!r}")
        except (ValueError, KeyError, TypeError, zlib.error,
                pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as exc:
            reason = str(exc) or type(exc).__name__
            if line_number == len(lines) and not raw.endswith(b"\n"):
                reason = f"torn tail: {reason}"
            quarantined.append(QuarantinedRecord(
                line_number=line_number, reason=reason, raw=line))
        else:
            replay.n_records += 1
            replay.next_seq = max(replay.next_seq,
                                  int(body.get("seq", -1)) + 1)
    replay.quarantined = tuple(quarantined)
    if write_quarantine and quarantined:
        _write_quarantine(quarantine_path or f"{path}.quarantine",
                          replay.quarantined)
    return replay
