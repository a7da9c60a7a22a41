"""Intra-function ordering and dataflow primitives.

The flow-sensitive rule AVI009 needs an answer a plain AST walk cannot
give: *does the fsync happen before the replace on every path?*  This
module answers it with **bounded path enumeration**: a function body
is lowered into the set of event sequences its control flow can
produce, and the ordering predicate is evaluated per path.

Control flow is modelled conservatively:

* ``if`` explores both branches;
* loops run zero and exactly one iteration (event *ordering* inside a
  loop body is iteration-invariant for the patterns we check);
* ``try`` produces the normal path plus one path per handler —
  handlers are entered with an *empty* body prefix (the exception may
  fire before any body statement completed), which under-approximates
  occurrences but never invents an ordering that cannot happen;
* ``finally`` is appended to every path through the statement;
* ``return`` / ``raise`` / ``break`` / ``continue`` terminate a path.

Enumeration is capped (default 512 paths).  On overflow the caller
receives ``None`` and is expected to stay silent — a missed finding is
acceptable, a false positive in the CI gate is not.

Events are caller-defined opaque objects produced by an ``events_of``
extractor invoked on every simple statement and on the header
expressions of compound statements (``if`` tests, ``with`` items,
loop iterables).  :func:`must_precede` then classifies them.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = ["enumerate_paths", "must_precede"]

#: Default cap on enumerated paths; beyond it analysis goes silent.
MAX_PATHS = 512

Path = Tuple[Any, ...]
_EventsOf = Callable[[ast.AST], Iterable[Any]]


class _Overflow(Exception):
    """Raised internally when the path product exceeds the cap."""


def _cross(prefixes: List[Tuple[Path, bool]],
           suffixes: List[Tuple[Path, bool]],
           cap: int) -> List[Tuple[Path, bool]]:
    """Sequence ``suffixes`` after every *live* prefix."""
    out: List[Tuple[Path, bool]] = []
    for prefix, dead in prefixes:
        if dead:
            out.append((prefix, True))
            continue
        for suffix, sdead in suffixes:
            out.append((prefix + suffix, sdead))
            if len(out) > cap:
                raise _Overflow
    return out


def _paths_of_block(stmts: Sequence[ast.stmt], events_of: _EventsOf,
                    cap: int) -> List[Tuple[Path, bool]]:
    paths: List[Tuple[Path, bool]] = [((), False)]
    for stmt in stmts:
        paths = _cross(paths, _paths_of_stmt(stmt, events_of, cap), cap)
    return paths


def _header_events(nodes: Iterable[Optional[ast.AST]],
                   events_of: _EventsOf) -> Path:
    events: List[Any] = []
    for node in nodes:
        if node is not None:
            events.extend(events_of(node))
    return tuple(events)


def _paths_of_stmt(stmt: ast.stmt, events_of: _EventsOf,
                   cap: int) -> List[Tuple[Path, bool]]:
    if isinstance(stmt, ast.If):
        head = _header_events([stmt.test], events_of)
        branches = []
        for body in (stmt.body, stmt.orelse):
            for path, dead in _paths_of_block(body, events_of, cap):
                branches.append((head + path, dead))
        return branches
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
        head = _header_events(
            [stmt.test if isinstance(stmt, ast.While) else stmt.iter],
            events_of)
        # A break/continue inside the body ends the path here too:
        # shorter paths carry fewer events to mis-order, so this is
        # conservative for ordering checks.
        once = _paths_of_block(list(stmt.body) + list(stmt.orelse),
                               events_of, cap)
        skip = _paths_of_block(stmt.orelse, events_of, cap)
        out = [(head + p, d) for p, d in skip]
        out.extend((head + p, d) for p, d in once)
        return out
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        head = _header_events(
            [item.context_expr for item in stmt.items], events_of)
        return [(head + p, d)
                for p, d in _paths_of_block(stmt.body, events_of, cap)]
    if isinstance(stmt, ast.Try):
        final = _paths_of_block(stmt.finalbody, events_of, cap)
        normal = _cross(
            _paths_of_block(list(stmt.body) + list(stmt.orelse),
                            events_of, cap),
            final, cap)
        out = list(normal)
        for handler in stmt.handlers:
            # Exception may fire before any body statement completed:
            # enter the handler with an empty body prefix.
            handled = _cross(
                _paths_of_block(handler.body, events_of, cap), final, cap)
            out.extend(handled)
            if len(out) > cap:
                raise _Overflow
        return out
    if isinstance(stmt, (ast.Return, ast.Raise)):
        events = _header_events(
            [stmt.value if isinstance(stmt, ast.Return) else stmt.exc],
            events_of)
        return [(tuple(events), True)]
    if isinstance(stmt, (ast.Break, ast.Continue)):
        return [((), True)]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [((), False)]  # nested definitions are separate scopes
    return [(tuple(events_of(stmt)), False)]


def enumerate_paths(stmts: Sequence[ast.stmt], events_of: _EventsOf,
                    max_paths: int = MAX_PATHS) -> Optional[Tuple[Path, ...]]:
    """All bounded event sequences through ``stmts``.

    Returns ``None`` when the path product exceeds ``max_paths`` —
    callers must treat that as "unknown" and stay silent.
    """
    try:
        paths = _paths_of_block(stmts, events_of, max_paths)
    except _Overflow:
        return None
    return tuple(path for path, _ in paths)


def must_precede(paths: Iterable[Path],
                 is_earlier: Callable[[Any], bool],
                 is_later: Callable[[Any], bool]) -> Optional[Any]:
    """Check "A precedes B on every path where B occurs".

    Returns the first violating B event, or ``None`` when the
    ordering holds everywhere.
    """
    for path in paths:
        seen_earlier = False
        for event in path:
            if is_earlier(event):
                seen_earlier = True
            elif is_later(event) and not seen_earlier:
                return event
    return None
