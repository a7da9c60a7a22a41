"""Stable structural fingerprints for solver memoisation.

The design-space sweep engine (:mod:`avipack.sweep`) avoids recomputing
identical sub-problems — the same rack solve, the same finite-volume
board solve, the same cooling-technique scan — reached from different
candidates.  That requires a *stable, content-based* key for arbitrary
model objects: two objects that would produce the same solver result
must hash identically, within a process and across worker processes.

:func:`stable_fingerprint` walks a value structurally and feeds a
canonical byte encoding into SHA-1:

* scalars (``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``)
  are encoded by type tag and ``repr`` (exact for floats);
* enums encode as class + value;
* numpy arrays encode dtype, shape and raw bytes;
* dataclasses encode class qualname + every field, recursively;
* mappings encode sorted items; sequences encode element order;
* objects exposing a ``fingerprint()`` method delegate to it;
* callables encode module + qualname only — *by identity of the code
  location, not behaviour* — so closures over changing state must not be
  fingerprinted (the nonlinear-network caveat documented in
  :meth:`avipack.thermal.network.ThermalNetwork.fingerprint`).

Python's built-in ``hash`` is unsuitable: it is salted per process for
strings, which would defeat cross-process cache accounting.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import zlib
from typing import Any, Callable, Dict, Tuple, Union

import numpy as np

__all__ = ["content_crc32", "content_digest", "stable_fingerprint"]


#: Per-class encoding of dataclass instances: the ``d<qualname>{``
#: opening and each field's name with its ``name=`` bytes.  Filled the
#: first time a class reaches the dataclass branch of :func:`_feed`,
#: so ``dataclasses.fields`` runs once per class.
_DATACLASS_LAYOUTS: Dict[type, Tuple[bytes, Tuple[Tuple[str, bytes], ...]]] = {}


def _feed(update: Callable[[bytes], None], value: Any) -> None:
    """Feed one value into a digest's ``update`` in canonical type-tagged form.

    The first branches are exact-type fast paths for the commonest
    values; each yields the bytes the general chain below it would.
    """
    kind = type(value)
    if kind is float:
        update(f"f{value!r};".encode())
    elif kind is str:
        update(b"s" + value.encode("utf-8") + b";")
    elif kind is int:
        update(f"i{value!r};".encode())
    elif kind is tuple:
        update(b"t[")
        for item in value:
            _feed(update, item)
        update(b"];")
    elif kind in _DATACLASS_LAYOUTS:
        _feed_dataclass(update, value, _DATACLASS_LAYOUTS[kind])
    elif value is None:
        update(b"N;")
    elif isinstance(value, bool):
        update(b"b1;" if value else b"b0;")
    elif isinstance(value, int):
        update(b"i" + repr(value).encode() + b";")
    elif isinstance(value, float):
        update(b"f" + repr(value).encode() + b";")
    elif isinstance(value, str):
        update(b"s" + value.encode("utf-8") + b";")
    elif isinstance(value, bytes):
        update(b"y" + value + b";")
    elif isinstance(value, enum.Enum):
        update(b"e" + kind.__qualname__.encode() + b":")
        _feed(update, value.value)
    elif isinstance(value, np.ndarray):
        update(b"a" + str(value.dtype).encode() + b":"
               + repr(value.shape).encode() + b":")
        update(np.ascontiguousarray(value).tobytes())
        update(b";")
    elif isinstance(value, np.generic):
        _feed(update, value.item())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        layout = _DATACLASS_LAYOUTS[kind] = (
            b"d" + kind.__qualname__.encode() + b"{",
            tuple((field.name, field.name.encode() + b"=")
                  for field in dataclasses.fields(kind)))
        _feed_dataclass(update, value, layout)
    elif isinstance(value, dict):
        update(b"m{")
        for key in sorted(value, key=repr):
            _feed(update, key)
            update(b":")
            _feed(update, value[key])
        update(b"};")
    elif isinstance(value, (list, tuple)):
        update(b"l[" if isinstance(value, list) else b"t[")
        for item in value:
            _feed(update, item)
        update(b"];")
    elif isinstance(value, (set, frozenset)):
        update(b"S{")
        for item in sorted(value, key=repr):
            _feed(update, item)
        update(b"};")
    elif hasattr(value, "fingerprint") and callable(value.fingerprint):
        update(b"F" + value.fingerprint().encode() + b";")
    elif callable(value):
        module = getattr(value, "__module__", "") or ""
        qualname = getattr(value, "__qualname__", repr(value))
        update(b"c" + module.encode() + b":" + qualname.encode() + b";")
    else:
        # Last resort: type + repr.  Adequate for simple value objects;
        # objects with unstable reprs should grow a fingerprint() method.
        update(b"r" + kind.__qualname__.encode() + b":"
               + repr(value).encode() + b";")


def _feed_dataclass(update: Callable[[bytes], None], value: Any,
                    layout: Tuple[bytes, Tuple[Tuple[str, bytes], ...]]
                    ) -> None:
    opening, fields = layout
    update(opening)
    for name, label in fields:
        update(label)
        _feed(update, getattr(value, name))
    update(b"};")


def stable_fingerprint(*values: Any) -> str:
    """Hex digest identifying ``values`` structurally and stably.

    Equal content gives equal digests in every process and session;
    structurally different content gives (overwhelmingly likely)
    different digests.  Accepts multiple values so call sites can key on
    ``stable_fingerprint("level2", rack, board_limit)`` directly.
    """
    digest = hashlib.sha1()
    update = digest.update
    for value in values:
        _feed(update, value)
    return digest.hexdigest()


def content_digest(data: Union[bytes, str]) -> str:
    """SHA-256 hex digest of raw bytes (strings are UTF-8 encoded).

    The integrity checksum used by the durability layer
    (:mod:`avipack.durability`) for journal records and on-disk cache
    entries: unlike :func:`stable_fingerprint` it hashes the *exact
    serialized bytes*, so any bit flip in a persisted artefact changes
    the digest.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def content_crc32(data: Union[bytes, str]) -> str:
    """CRC-32 of raw bytes as 8 hex digits (strings are UTF-8 encoded).

    The cheap first-line checksum on journal records; a mismatch is
    settled by the authoritative :func:`content_digest` anyway, but the
    CRC catches the common torn-write/bit-rot cases without hashing
    twice over intact files.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"
