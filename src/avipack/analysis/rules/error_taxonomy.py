"""AVI002 — error-taxonomy enforcement.

Two checks, both born out of real incidents in this repo's history:

1. **Bare builtin raises** — ``raise ValueError(...)`` (or
   ``RuntimeError``/``Exception``/``KeyError``/``TypeError``) inside the
   ``avipack`` package bypasses the :mod:`avipack.errors` taxonomy, so
   callers catching :class:`~avipack.errors.AvipackError` miss it and
   sweep failure classification degrades to "unknown exception".
2. **Unpicklable custom exceptions** — an exception class whose custom
   ``__init__`` takes extra constructor arguments loses them when it
   crosses a process boundary unless it defines ``__reduce__`` (the
   default ``Exception`` reduction replays ``args`` only, which no
   longer match the signature).  This is exactly the PR 2 bug class
   fixed on ``ConvergenceError``/``OperatingLimitError``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from ..context import FileContext
from ..findings import Finding, Severity
from . import Rule, register

__all__ = ["AVI002ErrorTaxonomy"]

#: Builtin exception types that must not be raised directly in-package.
_BANNED_RAISES = frozenset(
    {"ValueError", "RuntimeError", "Exception", "KeyError", "TypeError"})

#: Taxonomy hint per banned builtin.
_REPLACEMENTS = {
    "ValueError": "avipack.errors.InputError (or ModelRangeError)",
    "TypeError": "avipack.errors.InputError",
    "KeyError": "avipack.errors.MaterialNotFoundError (or InputError)",
    "RuntimeError": "an avipack.errors.AvipackError subclass",
    "Exception": "an avipack.errors.AvipackError subclass",
}


def _raised_name(node: ast.Raise) -> Optional[str]:
    """Name of the exception type in ``raise Name``/``raise Name(...)``."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    return None


def _extra_init_args(init: ast.FunctionDef) -> int:
    """Constructor arguments beyond ``self`` (including keyword-only)."""
    args = init.args
    count = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if names and names[0] in ("self", "cls"):
        count -= 1
    return count


def _is_exception_class(node: ast.ClassDef) -> bool:
    """Heuristic: a base name ending in Error/Exception marks the class."""
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "")
        if name.endswith(("Error", "Exception")):
            return True
    return False


@register
class AVI002ErrorTaxonomy(Rule):
    """Flag bare builtin raises and unpicklable custom exceptions."""

    rule_id = "AVI002"
    name = "error-taxonomy"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and ctx.in_package:
                yield from self._check_raise(ctx, node)
            elif isinstance(node, ast.ClassDef):
                yield from self._check_exception_class(ctx, node)

    def _check_raise(self, ctx: FileContext,
                     node: ast.Raise) -> Iterator[Finding]:
        name = _raised_name(node)
        if name in _BANNED_RAISES:
            yield self.finding(
                ctx, node,
                f"bare builtin 'raise {name}' bypasses the avipack.errors "
                f"taxonomy; callers catching AvipackError will miss it",
                suggestion=f"raise {_REPLACEMENTS[name]}")

    def _check_exception_class(self, ctx: FileContext,
                               node: ast.ClassDef) -> Iterator[Finding]:
        if not _is_exception_class(node):
            return
        init = None
        has_reduce = False
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name == "__init__":
                    init = stmt
                elif stmt.name in ("__reduce__", "__reduce_ex__",
                                   "__getnewargs__", "__getnewargs_ex__"):
                    has_reduce = True
        if init is None or has_reduce:
            return
        if init.args.vararg is not None:
            return  # *args pass-through keeps the default reduction valid
        if _extra_init_args(init) > 1:
            yield self.finding(
                ctx, init,
                f"exception '{node.name}' has a custom __init__ with extra "
                f"arguments but no __reduce__; it will not survive "
                f"pickling across sweep worker boundaries",
                suggestion="define __reduce__ returning the constructor "
                           "arguments (see avipack.errors.ConvergenceError)")
