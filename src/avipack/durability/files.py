"""The one way this package writes, locks and sets aside durable files.

Every artifact a crash can interrupt — shards, checkpoints, journal
quarantine sidecars, store reason sidecars, job manifests, the CLI's
``--report-json`` and the committed bench baselines — is published by
:func:`atomic_write`:

* the chunks go to a :func:`tempfile.mkstemp` file named
  ``<name>.tmp.<random>`` in the destination's directory, written one
  by one (a 64k-row shard is ~20 MB and is never joined in memory);
* the stream is flushed, ``os.fsync``'d and only then ``os.replace``'d
  onto the destination, so a reader sees the old bytes or the new ones;
* on any failure — an exception at a phase hook, ``ENOSPC`` or ``EIO``
  at write or fsync, a failed rename — the temp is unlinked and the
  error re-raised.  Only SIGKILL or power loss leaves a temp behind,
  and :func:`sweep_stale_tmp` removes it while the artifact's writer
  lock is held, so it never races an in-flight write.

Writers are serialised per artifact by :func:`open_locked`, a
non-blocking advisory ``flock`` on an append-mode stream; each caller
raises its own error type and message on contention.  Damaged files
are set aside by :func:`quarantine`.

The parent directory is not ``fsync``'d after the rename, so a power
cut right after a publish may still show the old directory entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import tempfile
from typing import Any, BinaryIO, Callable, Dict, Optional

try:  # pragma: no cover - availability depends on the platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = ["atomic_write", "open_locked", "quarantine", "sweep_stale_tmp"]

#: Infix of every :func:`atomic_write` temp: ``<name>.tmp.<random>``.
TMP_INFIX = ".tmp."


def _no_phase(phase: str) -> None:
    """Default phase hook."""


def atomic_write(path: str, *chunks: bytes,
                 phase_hook: Optional[Callable[[str], None]] = None
                 ) -> None:
    """Durably publish ``chunks`` as the whole content of ``path``.

    Write -> flush -> ``os.fsync`` -> ``os.replace``, through a temp in
    the same directory that is unlinked if any step fails.
    ``phase_hook`` is the chaos-test seam: it is called with
    ``"write"``, ``"fsync"`` and ``"replace"`` as each phase begins.
    """
    hook = phase_hook or _no_phase
    directory, name = os.path.split(path)
    hook("write")
    fd, tmp = tempfile.mkstemp(dir=directory or ".",
                               prefix=name + TMP_INFIX)
    try:
        with os.fdopen(fd, "wb") as stream:
            for chunk in chunks:
                stream.write(chunk)
            stream.flush()
            hook("fsync")
            os.fsync(stream.fileno())
        hook("replace")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def sweep_stale_tmp(directory: str, name_pattern: str) -> None:
    """Delete the temps that killed :func:`atomic_write` calls left.

    Removes every entry of ``directory`` named ``<name>.tmp.<random>``
    whose ``<name>`` fully matches the regular expression
    ``name_pattern`` (pass ``re.escape(name)`` for one artifact).  Call
    it only while holding the artifact's writer lock: a temp belongs to
    an in-flight write exactly as long as that lock is held.
    """
    stale = re.compile(f"(?:{name_pattern}){re.escape(TMP_INFIX)}[^.]+")
    for entry in os.listdir(directory):
        if stale.fullmatch(entry):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, entry))


def open_locked(path: str, refusal: Exception) -> BinaryIO:
    """Open ``path`` for append and take a non-blocking exclusive ``flock``.

    The lock lives on the open file description: closing the returned
    stream, or the process dying however violently, releases it.  When
    another process holds it, the stream is closed and ``refusal`` is
    raised from the ``OSError``.  Without ``fcntl`` (non-POSIX) the
    stream is returned unlocked.
    """
    stream = open(path, "ab")
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        return stream
    try:
        fcntl.flock(stream.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError as exc:
        stream.close()
        raise refusal from exc
    return stream


def quarantine(path: str, reason: Dict[str, Any]) -> None:
    """Set a damaged file aside and record why.

    Renames ``path`` to ``<path>.quarantine`` (a rename only: no data
    is written, so durability ordering does not apply), then publishes
    ``reason`` as one JSON line in ``<path>.quarantine.reason``.
    """
    if os.path.exists(path):
        os.replace(path, path + ".quarantine")
    document = json.dumps(reason, sort_keys=True) + "\n"
    atomic_write(path + ".quarantine.reason", document.encode("utf-8"))
