"""AVI006 — durable files are written in one place.

Every artifact a crash can interrupt — shards, checkpoints, manifests,
quarantine sidecars, reports, bench baselines — is published by
:func:`avipack.durability.files.atomic_write` (write, flush,
``os.fsync``, ``os.replace`` through a same-directory temp) and locked
by :func:`~avipack.durability.files.open_locked`.  That ordering is
pinned by the durability package's own tests, so this rule does not
re-derive it per call site; it keeps the idiom from reappearing
anywhere else:

* outside the ``avipack/durability/`` package, any call to
  ``os.replace``, ``os.rename``, ``os.fsync``, ``fcntl.flock``,
  ``fcntl.lockf`` or ``tempfile.mkstemp`` is a finding, correctly
  ordered or not.  Names resolve through the file's module-level import
  bindings, so ``from os import replace as swap`` is caught too;
* ``open(path, "w")`` where the destination is a JSON-ish literal
  (``*.json`` / ``*.jsonl``) or where the opened stream receives a
  ``json.dump`` in the enclosing ``with`` — a persisted document, not
  a scratch file — torn by a crash between ``open`` and ``close``;
* ``path.write_text(json.dumps(...))`` / ``write_bytes`` of an encoded
  ``json.dumps`` — the same torn-write window behind a helper.

Appends (``"a"`` modes) are out of scope: the journal's record-level
framing handles torn appends by design.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..context import FileContext
from ..findings import Finding, Severity
from ..project import call_target, graph_of
from . import Rule, register

__all__ = ["AVI006AtomicPersist"]

#: Destination suffixes treated as persisted documents even when the
#: stream usage cannot be traced.
_PERSISTED_SUFFIXES = (".json", ".jsonl")

_SUGGESTION = ("publish with avipack.durability.files.atomic_write() "
               "and lock with open_locked()")

#: Durable-file primitives only ``avipack/durability/`` may call.
_DURABLE_PRIMITIVES = frozenset({
    "os.replace", "os.rename", "os.fsync",
    "fcntl.flock", "fcntl.lockf", "tempfile.mkstemp"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _literal_path(node: ast.expr) -> Optional[str]:
    """Best-effort literal destination of an ``open``/``Path`` call."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        tail = node.values[-1]
        if isinstance(tail, ast.Constant) and isinstance(tail.value, str):
            return tail.value
    if isinstance(node, ast.Call):  # Path("x.json"), os.path.join(..., "x.json")
        for arg in reversed(node.args):
            literal = _literal_path(arg)
            if literal is not None:
                return literal
    return None


def _is_persisted_path(node: ast.expr) -> bool:
    literal = _literal_path(node)
    return literal is not None and literal.endswith(_PERSISTED_SUFFIXES)


def _open_write_mode(call: ast.Call) -> bool:
    """True for ``open(..., "w"/"wb"/"w+"...)`` (not append, not read)."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return False
    return "w" in mode.value or "x" in mode.value


def _json_dump_into(body: Iterable[ast.stmt], stream_name: str) -> bool:
    """True when the with-body json.dump()s into ``stream_name``."""
    for statement in body:
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "dump"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                continue
            targets = list(node.args[1:]) + [
                keyword.value for keyword in node.keywords
                if keyword.arg == "fp"]
            if any(isinstance(target, ast.Name)
                   and target.id == stream_name for target in targets):
                return True
    return False


def _calls_json_dumps(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call) \
                and isinstance(child.func, ast.Attribute) \
                and child.func.attr == "dumps" \
                and isinstance(child.func.value, ast.Name) \
                and child.func.value.id == "json":
            return True
    return False


@register
class AVI006AtomicPersist(Rule):
    """Flag durable-file writes made outside the one publish site."""

    rule_id = "AVI006"
    name = "atomic-persist"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        _, summary = graph_of(ctx)
        outside_durability = ctx.package_parts[:2] != ("avipack",
                                                       "durability")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._classify(ctx, node)
            if message is None and outside_durability:
                target = call_target(summary.bindings, node)
                if target in _DURABLE_PRIMITIVES:
                    message = (f"{target}() outside avipack.durability: "
                               "durable files are published and locked "
                               "in one place")
            if message is not None:
                yield self.finding(ctx, node, message,
                                   suggestion=_SUGGESTION)

    # -- classification ------------------------------------------------------

    def _classify(self, ctx: FileContext,
                  call: ast.Call) -> Optional[str]:
        if _open_write_mode(call) and call.args:
            if _is_persisted_path(call.args[0]):
                return ("persisted document opened for direct write: a "
                        "crash mid-write leaves a torn file at the "
                        "destination")
            stream_name = self._with_alias(ctx, call)
            if stream_name is not None:
                with_node = self._enclosing_with(ctx, call)
                if with_node is not None and _json_dump_into(
                        with_node.body, stream_name):
                    return ("json.dump() straight onto the destination "
                            "stream: a crash mid-dump leaves a torn "
                            "document")
            return None
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in ("write_text", "write_bytes") \
                and call.args and _calls_json_dumps(call.args[0]):
            return (f"{call.func.attr}() of a json.dumps() payload "
                    "rewrites the destination in place: a crash "
                    "mid-write leaves a torn document")
        return None

    # -- structure helpers ---------------------------------------------------

    @staticmethod
    def _enclosing_with(ctx: FileContext,
                        call: ast.Call) -> Optional[ast.With]:
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if item.context_expr is call:
                        return ancestor
            if isinstance(ancestor, _FUNCTION_NODES):
                break
        return None

    def _with_alias(self, ctx: FileContext,
                    call: ast.Call) -> Optional[str]:
        with_node = self._enclosing_with(ctx, call)
        if with_node is None:
            return None
        for item in with_node.items:
            if item.context_expr is call \
                    and isinstance(item.optional_vars, ast.Name):
                return item.optional_vars.id
        return None
