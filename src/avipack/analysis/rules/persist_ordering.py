"""AVI009 — atomic publication must be durable *in order* on every path.

AVI006 catches code that skips the tmp+``os.replace`` idiom entirely.
This rule checks the idiom itself: once a function both writes data and
calls ``os.replace``, the write must be flushed and fsynced *before*
the rename on **every** control-flow path, or a crash immediately
after the rename can publish a name that points at data the kernel
never made durable — the torn-state class the durability layer (PR 5)
exists to exclude.

Concretely, per function containing both a buffered write (``.write``
/ ``.writelines`` / ``json.dump`` / ``pickle.dump``) and an
``os.replace``:

* every path reaching ``os.replace`` must see an ``os.fsync`` first;
* every path reaching ``os.fsync`` must see a ``flush()`` first
  (``os.fsync`` pushes kernel buffers, not Python's userspace buffer).

Paths are enumerated by :mod:`avipack.analysis.flow` (branches both
ways, loops 0/1 times, exception edges through handlers); functions
whose control flow exceeds the path budget are skipped rather than
guessed at.  Rename-only uses of ``os.replace`` (quarantine moves,
rotations) contain no write event and are out of scope.  ``os.write``
on a raw fd is unbuffered and intentionally not a write event.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..context import FileContext
from ..findings import Finding, Severity
from .. import flow
from . import Rule, register

__all__ = ["AVI009PersistOrdering"]

_SUGGESTION = ("order the publish as write -> flush() -> os.fsync() -> "
               "os.replace() on every path")

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Event kinds, in the order the publish protocol requires them.
_WRITE, _FLUSH, _FSYNC, _REPLACE = "write", "flush", "fsync", "replace"


def _call_parts(call: ast.Call) -> Tuple[str, ...]:
    parts: List[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _classify(call: ast.Call) -> Optional[str]:
    parts = _call_parts(call)
    if not parts:
        return None
    head, tail = parts[0], parts[-1]
    # Generous write/flush matching (any receiver depth): missing a
    # flush event would make the fsync check fire falsely.  ``os.write``
    # is raw-fd and unbuffered, hence excluded.
    if tail in ("write", "writelines") and len(parts) > 1 and head != "os":
        return _WRITE
    if tail == "dump" and len(parts) == 2 \
            and head in ("json", "pickle", "marshal"):
        return _WRITE
    if tail == "flush" and len(parts) > 1:
        return _FLUSH
    if parts == ("os", "fsync"):
        return _FSYNC
    if parts == ("os", "replace"):
        return _REPLACE
    return None


def _events_of(node: ast.AST):
    """Publish-protocol events in one atomic statement/expression."""
    events = []
    for child in ast.walk(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Call):
            kind = _classify(child)
            if kind is not None:
                events.append((kind, child))
    return events


def _is_kind(kind: str):
    return lambda event: event[0] == kind


@register
class AVI009PersistOrdering(Rule):
    """Flag publish sequences whose durability ordering can be skipped."""

    rule_id = "AVI009"
    name = "persist-ordering"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, _FUNCTION_NODES):
                continue
            yield from self._check_function(ctx, node)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterable[Finding]:
        kinds = {kind for kind, _ in _events_of(func)}
        if _REPLACE not in kinds or _WRITE not in kinds:
            return
        paths = flow.enumerate_paths(func.body, _events_of)
        if paths is None:  # over budget: unknown, stay silent
            return
        violation = flow.must_precede(paths, _is_kind(_FSYNC),
                                      _is_kind(_REPLACE))
        if violation is not None:
            yield self.finding(
                ctx, violation[1],
                "os.replace() publishes data no os.fsync() made durable "
                "on this path: a crash after the rename can expose a "
                "torn or empty file", suggestion=_SUGGESTION)
        violation = flow.must_precede(paths, _is_kind(_FLUSH),
                                      _is_kind(_FSYNC))
        if violation is not None:
            yield self.finding(
                ctx, violation[1],
                "os.fsync() without a preceding flush(): Python's "
                "userspace buffer is not yet in the kernel, so the "
                "fsync durability guarantee does not cover it",
                suggestion=_SUGGESTION)
