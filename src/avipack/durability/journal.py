"""Write-ahead journal for design-space sweeps (append-only JSONL).

A multi-hour sweep that dies to SIGKILL, OOM or power loss should cost
the campaign the in-flight candidates, not the finished ones.
:class:`SweepJournal` is the durability contract behind
:meth:`avipack.sweep.SweepRunner.run` (``journal_path=...``) and
:meth:`~avipack.sweep.SweepRunner.resume`:

* every record is one JSON line carrying a ``body`` plus two checksums
  over the canonical body encoding — CRC-32 (cheap first line of
  defence) and SHA-256 (authoritative) — and the journal
  ``schema_version``; :func:`seal` is the one function that writes a
  line;
* appends are atomic at the record level: the encoded line is written
  in a single call on an append-mode descriptor, flushed and
  ``fsync``'d before the runner proceeds, so after a crash the journal
  is a prefix of intact records plus at most one torn tail line;
* replay (:func:`replay_journal`) never raises on damage and never
  silently trusts it: a truncated, bit-flipped, undecompressible or
  unpicklable record is moved to a ``.quarantine`` sidecar and its
  candidate is simply recomputed by the resume.  An intact record
  written at a schema outside the window below is refused instead.

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
(:data:`~avipack.durability._payload_dict.SCHEMA3_ZDICT`): every line
shares one copy of the pickle opcodes, module paths, class and field
names it would otherwise repeat.  Each line holds one copy of each
fact:

* an outcome payload is pickled with an empty ``fingerprint`` and with
  ``candidate=None``.  Replay writes the envelope's ``fingerprint``
  back, so the resume audit still compares it with the candidate's own
  fingerprint, and gives the outcome ``plan[outcome.index]`` from the
  candidate list of the latest intact ``plan`` or ``checkpoint`` record
  read so far, in file order.  The line is quarantined when no intact
  plan precedes it, when its index is outside that plan, or when the
  plan's candidate at the index has another fingerprint than the
  envelope, so a line is never paired with a candidate it was not
  written for;
* a payload may still embed its candidate: a compaction checkpoint
  does so for an outcome whose candidate its plan does not hold at
  that index (a resume over a subset space leaves such orphans), and
  the resume audit's fingerprint-integrity check covers it;
* the line is written compactly, ``{"body":…,"crc32":…,"sha256":…}``,
  straight from the canonical body text the checksums cover, with the
  SHA-256 as 43 characters of unpadded base64.

The schema window: a release reads the journal schema it writes and
the one before it, here 5 and 6.  They differ only in the
``checkpoint`` record: at schema 6 its ``outcomes`` field is one
payload, a pickled tuple of ``(20 raw fingerprint bytes, stripped
outcome)`` entries in fingerprint order that shares one zlib stream,
and at schema 5 it holds one payload text per fingerprint.  Every
entry is decoded before any is applied, so one bad entry quarantines
the whole record.  A line whose CRC-32 holds but whose integer
``schema_version`` is outside the window is refused with
:class:`~avipack.errors.JournalError` naming the line and the way to
upgrade it (``python -m avipack compact`` of avipack 1.0.0, which reads
schemas 1 to 6 and writes 6); quarantining it would silently drop a
valid record from the resume and from every compaction after it.  A
different dictionary is a new schema version.

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
import copy
import hashlib
import json
import os
import pickle
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import DurabilityError, InputError, JournalError
from ..fingerprint import content_crc32
from ..resilience.faults import corrupts as _corrupts
from ._payload_dict import SCHEMA3_ZDICT
from .files import atomic_write, open_locked

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sweep.runner import CandidateOutcome
    from ..sweep.space import Candidate

__all__ = ["SCHEMA_VERSION", "JournalReplay", "QuarantinedRecord",
           "SweepJournal", "encode_record", "outcome_kind",
           "replay_journal", "seal"]

#: Bump when the record encoding changes, and drop the oldest decoder:
#: replay refuses any intact line it has no decoder for rather than
#: guessing at its layout.
SCHEMA_VERSION = 6

#: The last release whose compaction reads every journal and store
#: schema from 1 on, named by the refusal of a file older than the
#: window.
_UPGRADE_RELEASE = "1.0.0"

#: The first schema whose checkpoint holds its outcomes as one payload.
_OUTCOME_BLOCK_SCHEMA = 6

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


def _inflate_primed(data: bytes) -> bytes:
    """Decode a payload: one whole zlib stream primed with
    :data:`SCHEMA3_ZDICT`.

    zlib also accepts a stream written without a dictionary, so that is
    refused here too.
    """
    if len(data) < 2 or not data[1] & _FDICT:
        raise _DamagedRecord("payload lacks the preset-dictionary flag")
    return _inflate_whole(zlib.decompressobj(zdict=SCHEMA3_ZDICT), data)


#: Payload decoder per readable ``schema_version``: the window of the
#: schema written now and the one before it.
_PAYLOAD_DECODERS = {5: _inflate_primed, 6: _inflate_primed}


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


def _sha256_text(data: bytes) -> str:
    """The SHA-256 of ``data`` as a line carries it: 43 characters of
    unpadded base64."""
    return base64.b64encode(hashlib.sha256(data).digest())[:-1].decode()


def seal(body: Dict[str, Any]) -> bytes:
    """One journal line: ``body`` in canonical form, its CRC-32 and its
    SHA-256, and ``\\n``.

    The line is assembled from the canonical text the checksums cover,
    with the envelope keys in sorted order and no spaces.
    """
    data = _canonical(body).encode("utf-8")
    return b"".join((
        b'{"body":', data,
        b',"crc32":"', content_crc32(data).encode("ascii"),
        b'","sha256":"',
        _sha256_text(data).encode("ascii"),
        b'"}\n'))


def _encode_payload(value: Any) -> str:
    deflater = zlib.compressobj(zdict=SCHEMA3_ZDICT)
    data = deflater.compress(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    return base64.b64encode(data + deflater.flush()).decode()


def _decode_payload(text: str,
                    schema_version: int = SCHEMA_VERSION) -> Any:
    return pickle.loads(_PAYLOAD_DECODERS[schema_version](
        base64.b64decode(text.encode())))


def _strip_outcome(outcome: "CandidateOutcome",
                   embed_candidate: bool = False) -> "CandidateOutcome":
    """A copy of ``outcome`` without the fingerprint its envelope (or
    checkpoint entry) carries and, unless ``embed_candidate``, without
    the candidate its plan record holds."""
    stripped = copy.copy(outcome)
    object.__setattr__(stripped, "fingerprint", "")
    if not embed_candidate:
        object.__setattr__(stripped, "candidate", None)
    return stripped


def _encode_outcome(outcome: "CandidateOutcome",
                    embed_candidate: bool = False) -> str:
    """An outcome line's payload: :func:`_strip_outcome`, encoded."""
    return _encode_payload(_strip_outcome(outcome, embed_candidate))


def _plan_candidate(plan: Optional[Tuple["Candidate", ...]], index: Any,
                    fingerprint: str) -> "Candidate":
    """``plan[index]``, the candidate an outcome was written for; raises
    :class:`_DamagedRecord` unless it is the candidate fingerprinted
    ``fingerprint``."""
    if plan is None:
        raise _DamagedRecord("outcome has no intact plan record before it")
    if type(index) is not int or not 0 <= index < len(plan):
        raise _DamagedRecord(f"outcome index {index!r} is outside the "
                             f"plan's {len(plan)} candidates")
    candidate = plan[index]
    if candidate.fingerprint != fingerprint:
        raise _DamagedRecord(
            f"plan candidate {index} hashes to {candidate.fingerprint[:12]},"
            f" not the outcome's {fingerprint[:12]}")
    return candidate


def _decode_outcome(text: str, fingerprint: str,
                    schema_version: int = SCHEMA_VERSION,
                    plan: Optional[Tuple["Candidate", ...]] = None
                    ) -> "CandidateOutcome":
    """Decode an outcome payload; the outcome takes ``fingerprint``, its
    envelope's copy, and, unless the payload embeds it, its candidate
    from ``plan``."""
    return _restore_outcome(_decode_payload(text, schema_version),
                            fingerprint, plan)


def _restore_outcome(outcome: "CandidateOutcome", fingerprint: str,
                     plan: Optional[Tuple["Candidate", ...]]
                     ) -> "CandidateOutcome":
    """Write back what a payload left out of the unpickled ``outcome``
    (see :func:`_decode_outcome`)."""
    object.__setattr__(outcome, "fingerprint", fingerprint)
    if outcome.candidate is None:
        object.__setattr__(outcome, "candidate", _plan_candidate(
            plan, outcome.index, fingerprint))
    return outcome


def _encode_outcome_block(outcomes: Dict[str, "CandidateOutcome"],
                          plan: Tuple["Candidate", ...]) -> str:
    """A schema-6 checkpoint's ``outcomes`` field: one payload of
    ``(raw fingerprint, stripped outcome)`` entries in fingerprint order.

    An orphan — an outcome whose candidate ``plan`` does not hold at its
    index, as a resume over a subset space leaves — keeps its candidate
    embedded, since replay could not pair it with the plan.
    """
    entries = []
    for fingerprint, outcome in sorted(outcomes.items()):
        try:
            _plan_candidate(plan, outcome.index, fingerprint)
        except _DamagedRecord:
            orphan = True
        else:
            orphan = False
        entries.append((bytes.fromhex(fingerprint),
                        _strip_outcome(outcome, embed_candidate=orphan)))
    return _encode_payload(tuple(entries))


def _decode_checkpoint_outcomes(outcomes: Any, schema_version: int,
                                plan: Tuple["Candidate", ...]
                                ) -> List[Tuple[str, "CandidateOutcome"]]:
    """Every ``(fingerprint, outcome)`` a checkpoint's ``outcomes`` field
    folds, each paired with ``plan``; raises on the first bad entry, so
    the record is quarantined whole."""
    if schema_version < _OUTCOME_BLOCK_SCHEMA:
        return [(str(fp), _decode_outcome(text, str(fp), schema_version,
                                          plan))
                for fp, text in outcomes.items()]
    entries = _decode_payload(outcomes, schema_version)
    if type(entries) is not tuple:
        raise _DamagedRecord("checkpoint outcomes are not one tuple")
    folded = []
    for raw, outcome in entries:
        if type(raw) is not bytes or len(raw) != 20:
            raise _DamagedRecord(
                "checkpoint entry has no 20-byte fingerprint")
        fingerprint = raw.hex()
        folded.append((fingerprint, _restore_outcome(
            outcome, fingerprint, plan)))
    return folded


def encode_record(kind: str, seq: int, fields: Dict[str, Any]) -> bytes:
    """Encode one journal record line at :data:`SCHEMA_VERSION`.

    The single encoding shared by live appends
    (:meth:`SweepJournal._append`) and the compaction checkpoint writer
    (:func:`avipack.retention.compact_journal`), so a checkpoint record
    verifies under exactly the same discipline as every other line.
    """
    body: Dict[str, Any] = {"schema_version": SCHEMA_VERSION,
                            "seq": seq, "kind": kind}
    body.update(fields)
    return seal(body)


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
                     payload=_encode_outcome(outcome))

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
    #: Candidate set from the latest intact plan or checkpoint record
    #: (None if none survived — resuming is then impossible).
    candidates: Optional[Tuple["Candidate", ...]] = None
    space_fingerprint: str = ""
    #: Latest intact outcome per candidate fingerprint.
    outcomes: Dict[str, "CandidateOutcome"] = field(default_factory=dict)
    #: Latest dispatched index per fingerprint (in-flight markers).
    dispatched: Dict[str, int] = field(default_factory=dict)
    n_records: int = 0
    next_seq: int = 0
    quarantined: Tuple[QuarantinedRecord, ...] = ()

    @property
    def n_quarantined(self) -> int:
        """Records that failed verification and were set aside."""
        return len(self.quarantined)


def _refusal(path: str, line_number: int, version: int) -> JournalError:
    """The error for an intact line at ``version``, outside the window."""
    window = f"schemas {min(_PAYLOAD_DECODERS)}-{max(_PAYLOAD_DECODERS)}"
    if version > SCHEMA_VERSION:
        advice = "open it with the newer avipack release that wrote it"
    else:
        advice = (f"upgrade it with avipack {_UPGRADE_RELEASE}, whose "
                  f"compaction rewrites it at schema {SCHEMA_VERSION}: "
                  f"python -m avipack compact --journal {path}")
    return JournalError(
        f"journal {path} line {line_number} is at schema {version}, "
        f"outside the {window} this release reads; {advice}",
        reason="schema")


def _verify_line(line: bytes, path: str,
                 line_number: int) -> Dict[str, Any]:
    """Decode and checksum-verify one line; raises _DamagedRecord, or
    :class:`JournalError` for an intact line outside the window.

    The version is checked after the CRC-32, so only an intact line is
    refused, and before the SHA-256, whose form older schemas wrote
    otherwise: checked first, it would quarantine their lines as
    damage.
    """
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _DamagedRecord(f"unparseable record: {exc}") from exc
    if (not isinstance(envelope, dict)
            or not isinstance(envelope.get("body"), dict)):
        raise _DamagedRecord("record has no body")
    body = envelope["body"]
    data = _canonical(body).encode("utf-8")
    version = body.get("schema_version")
    if envelope.get("crc32") != content_crc32(data):
        raise _DamagedRecord("crc32 mismatch")
    if type(version) is int and version not in _PAYLOAD_DECODERS:
        raise _refusal(path, line_number, version)
    if envelope.get("sha256") != _sha256_text(data):
        raise _DamagedRecord("sha256 mismatch")
    if type(version) is not int:
        raise _DamagedRecord(
            f"schema_version {version!r} is not an integer "
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


def replay_journal(path: str, quarantine_path: Optional[str] = None,
                   write_quarantine: bool = True) -> JournalReplay:
    """Verify and replay a journal; damage is quarantined, never fatal.

    Every line is independently decoded and checksum-verified; lines
    that fail (torn tail, bit flips, a ``schema_version`` that is not an
    integer, undecompressible or unpicklable payloads, an outcome its
    plan does not hold) become
    :class:`QuarantinedRecord` entries — written to ``quarantine_path``
    (default ``<path>.quarantine``) as a JSONL sidecar when
    ``write_quarantine`` is set — and replay continues.  A
    missing/unreadable journal *file* raises
    :class:`~avipack.errors.JournalError`, and so does an intact line
    at an integer schema outside the window, before any sidecar is
    written.
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
            body = _verify_line(line, path, line_number)
            kind = body["kind"]
            version = body["schema_version"]
            if kind in ("plan", "checkpoint"):
                plan = tuple(_decode_payload(body["candidates"], version))
                # A checkpoint's outcomes pair with its own candidates,
                # and are all decoded before any of them is applied.
                folded = []
                if kind == "checkpoint":
                    folded = _decode_checkpoint_outcomes(
                        body["outcomes"], version, plan)
                replay.candidates = plan
                replay.space_fingerprint = str(
                    body.get("space_fingerprint", ""))
            if kind == "dispatched":
                replay.dispatched[str(body["fingerprint"])] = \
                    int(body["index"])
            elif kind in _OUTCOME_KINDS:
                fingerprint = str(body["fingerprint"])
                replay.outcomes[fingerprint] = _decode_outcome(
                    body["payload"], fingerprint, version,
                    replay.candidates)
            elif kind == "checkpoint":
                # One folded prefix (see avipack.retention): apply it
                # wholesale, then let any live-tail records appended
                # after compaction override entries latest-wins, just
                # as the uncompacted stream would have.
                replay.outcomes.update(folded)
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
