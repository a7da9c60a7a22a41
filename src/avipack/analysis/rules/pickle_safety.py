"""AVI003 — worker-boundary pickle safety.

Anything handed to a process pool must survive ``pickle``.  Lambdas,
functions/classes defined inside another function (their qualname
contains ``<locals>``, which pickle cannot import on the worker side)
all fail — but only at runtime, typically twenty minutes into a sweep.

This rule flags those payloads *at the submission site*:

* ``SweepRunner(..., evaluator=<lambda/local def>)``
* ``runner.run(...)`` where ``runner`` was built from ``SweepRunner(...)``
* ``pool.submit/apply_async/map_async/imap/imap_unordered(...)``
* ``pool.map(...)``/``executor.map(...)`` when the receiver name looks
  like a pool (contains ``pool``, ``executor`` or ``runner``)

Note the parallel path *does* fall back to serial on a pickling error
(PR 2), so these payloads "work" — by silently discarding the
parallelism the sweep engine exists to provide.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Set

from ..context import FileContext
from ..findings import Finding, Severity
from . import Rule, register

__all__ = ["AVI003PickleSafety"]

#: Attribute names that always denote a pool submission.
_SUBMIT_ATTRS = frozenset(
    {"submit", "apply_async", "map_async", "imap", "imap_unordered"})

#: Attribute names that denote submission only on pool-like receivers.
_POOLISH_ATTRS = frozenset({"map", "starmap"})
_POOLISH_NAMES = ("pool", "executor", "runner")


def _receiver_name(func: ast.Attribute) -> Optional[str]:
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):  # self.pool.submit(...)
        return value.attr
    return None


class _ScopeIndex:
    """Names bound to defs/classes nested inside functions, per scope."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        # id(function node) -> names of local defs/classes/lambdas bound
        # anywhere inside that function.
        self.local_defs: Dict[int, Set[str]] = {}
        self.runner_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = self._enclosing_function(node)
                if owner is not None:
                    self.local_defs.setdefault(id(owner), set()).add(node.name)
            elif isinstance(node, ast.Assign):
                self._track_runner(node)
            elif (isinstance(node, ast.AnnAssign)
                  and node.value is not None
                  and isinstance(node.target, ast.Name)):
                if _is_sweeprunner_call(node.value):
                    self.runner_names.add(node.target.id)

    def _track_runner(self, node: ast.Assign) -> None:
        if not _is_sweeprunner_call(node.value):
            return
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.runner_names.add(target.id)
            elif isinstance(target, ast.Attribute):
                self.runner_names.add(target.attr)

    def _enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def locally_defined(self, call: ast.Call, name: str) -> bool:
        """Is ``name`` (used at ``call``) bound to a local def/class?"""
        for ancestor in self.ctx.ancestors(call):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if name in self.local_defs.get(id(ancestor), ()):
                    return True
        return False


def _is_sweeprunner_call(node: Optional[ast.AST]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else "")
    return name == "SweepRunner"


@register
class AVI003PickleSafety(Rule):
    """Flag unpicklable payloads at process-pool submission sites."""

    rule_id = "AVI003"
    name = "worker-pickle-safety"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        index = _ScopeIndex(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            site = self._submission_site(node, index)
            if site is None:
                continue
            for arg in self._payload_args(node):
                yield from self._check_payload(ctx, index, node, arg, site)

    # -- site detection ------------------------------------------------------

    def _submission_site(self, call: ast.Call,
                         index: _ScopeIndex) -> Optional[str]:
        func = call.func
        if _is_sweeprunner_call(call):
            return "SweepRunner(...)"
        if not isinstance(func, ast.Attribute):
            return None
        receiver = _receiver_name(func) or ""
        if func.attr in _SUBMIT_ATTRS:
            return f"{receiver or '<pool>'}.{func.attr}(...)"
        if (func.attr in _POOLISH_ATTRS
                and any(tag in receiver.lower() for tag in _POOLISH_NAMES)):
            return f"{receiver}.{func.attr}(...)"
        if func.attr == "run" and receiver in index.runner_names:
            return f"{receiver}.run(...)"
        return None

    @staticmethod
    def _payload_args(call: ast.Call) -> Iterator[ast.expr]:
        yield from call.args
        for keyword in call.keywords:
            if keyword.arg is not None:
                yield keyword.value

    # -- payload classification ----------------------------------------------

    def _check_payload(self, ctx: FileContext, index: _ScopeIndex,
                       call: ast.Call, arg: ast.expr,
                       site: str) -> Iterator[Finding]:
        if isinstance(arg, ast.Lambda):
            yield self.finding(
                ctx, arg,
                f"lambda passed to worker-boundary site {site}; lambdas "
                f"cannot be pickled into pool workers",
                suggestion="use a module-level function")
            return
        if isinstance(arg, ast.Name) and index.locally_defined(call, arg.id):
            yield self.finding(
                ctx, arg,
                f"locally-defined '{arg.id}' passed to worker-boundary "
                f"site {site}; nested defs/classes cannot be pickled "
                f"into pool workers",
                suggestion="move the definition to module level")
