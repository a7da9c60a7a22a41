"""Project-wide symbol and call graph for the analyzer.

A blocking call buried three frames below an ``async def`` only exists
*between* functions, often between files.  AVI008 needs that
cross-module view, and this module supplies it:

* :func:`summarize` lowers one parsed file into a :class:`ModuleSummary`:
  the module's import bindings (resolved to absolute dotted names,
  including relative imports), the attribute types its classes assign
  in ``__init__``, and one :class:`FunctionSummary` per
  function/method — direct blocking operations plus every call site
  resolved (conservatively) to a ``"module:Qual.name"`` reference.
* :class:`ProjectGraph` assembles the summaries into a conservative
  call graph with a transitive *blocking* classification and a witness
  chain for diagnostics.

AVI006 reuses the bindings alone, through :func:`call_target`, to name
the function a call really invokes.

Resolution is conservative by construction — a call is only resolved
when its target is structurally evident (a direct name binding, a
``self.method``, a ``self.attr.method`` whose attribute type is
assigned from a constructor in ``__init__``, a local variable
constructed in the same function, or a ``Class.method`` access).
Anything else is dropped, so the graph under-approximates reachability
and never invents an edge into code the file cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .context import FileContext

__all__ = [
    "BlockingOp",
    "CallSite",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "call_target",
    "graph_of",
    "summarize",
]

#: Fully-qualified callables that block the calling thread (event-loop
#: poison when reached from an ``async def`` without an executor hop).
_BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "time.sleep() suspends the whole thread",
    "os.fsync": "os.fsync() waits on durable disk I/O",
    "os.replace": "os.replace() performs synchronous file I/O",
    "fcntl.flock": "fcntl.flock() performs a blocking syscall",
    "fcntl.lockf": "fcntl.lockf() performs a blocking syscall",
    "subprocess.run": "subprocess.run() waits on a child process",
    "subprocess.call": "subprocess.call() waits on a child process",
    "subprocess.check_call": "subprocess.check_call() waits on a child",
    "subprocess.check_output": "subprocess.check_output() waits on a child",
    "subprocess.Popen": "subprocess.Popen() spawns a process synchronously",
}

#: Methods on a ``socket.socket`` object that block.
_BLOCKING_SOCKET_METHODS = ("connect", "accept", "recv", "recvfrom",
                            "send", "sendall", "sendfile", "makefile")


@dataclass(frozen=True)
class BlockingOp:
    """One direct blocking operation inside a function body."""

    line: int
    column: int
    description: str


@dataclass(frozen=True)
class CallSite:
    """One resolved call site: ``ref`` is a ``"module:Qual.name"``."""

    line: int
    column: int
    ref: str
    #: Source rendering used in diagnostics (``self.store.save``).
    display: str


@dataclass(frozen=True)
class FunctionSummary:
    """What the graph needs to know about one function or method."""

    qualname: str
    line: int
    column: int
    is_async: bool
    blocking: Tuple[BlockingOp, ...] = ()
    calls: Tuple[CallSite, ...] = ()


@dataclass
class ModuleSummary:
    """Everything the project graph keeps about one analyzed file."""

    rel_path: str
    #: Dotted module name (``avipack.sweep.runner``); "" outside the
    #: package (such files join the graph but export no symbols).
    module: str = ""
    #: Local name -> absolute target ("pkg.mod" or "pkg.mod:Symbol").
    bindings: Dict[str, str] = field(default_factory=dict)
    #: Class names defined at module level.
    classes: Tuple[str, ...] = ()
    #: ``"Class.attr" -> "module:Ctor"`` for ``self.attr = Ctor(...)``.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: Function/method summaries keyed by qualname.
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string for pure Name/Attribute chains."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _resolve_dotted(bindings: Dict[str, str], dotted: str) -> str:
    """Normalise an aliased dotted call head (``socket_mod.x``)."""
    head, _, rest = dotted.partition(".")
    bound = bindings.get(head)
    if bound is not None and ":" not in bound and rest:
        return f"{bound}.{rest}"
    if bound is not None and ":" in bound:
        # ``from time import sleep`` -> sleep(); ``from os import
        # path`` -> path.x (the symbol is itself a module).
        module, _, symbol = bound.partition(":")
        return (f"{module}.{symbol}.{rest}" if rest
                else f"{module}.{symbol}")
    return dotted


def call_target(bindings: Dict[str, str], call: ast.Call) -> Optional[str]:
    """Dotted name ``call`` invokes, through the file's import bindings.

    ``from os import replace as swap; swap(a, b)`` -> ``"os.replace"``;
    unbound heads are returned as written; ``None`` for calls that are
    not a pure name/attribute chain (``f()()``, ``x[0]()``).
    """
    dotted = _dotted(call.func)
    return None if dotted is None else _resolve_dotted(bindings, dotted)


def _resolve_relative(package_parts: Tuple[str, ...], level: int,
                      module: Optional[str]) -> Optional[str]:
    """Absolute dotted module for a ``from ...x import y`` statement."""
    if level == 0:
        return module
    # package_parts includes the module itself; the package is one up
    # (two up for __init__-less leaf modules, which package_parts
    # already dropped the ``__init__`` suffix for).
    base = list(package_parts[:-1]) if package_parts else []
    if level > 1:
        if level - 1 > len(base):
            return None
        base = base[:len(base) - (level - 1)]
    if module:
        base.extend(module.split("."))
    return ".".join(base) if base else None


class _Extractor:
    """Single-pass extraction of a :class:`ModuleSummary`."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ".".join(ctx.package_parts)
        self.summary = ModuleSummary(rel_path=ctx.rel_path,
                                     module=self.module)
        self._toplevel_names: Set[str] = {
            node.name for node in ctx.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}

    def _resolve_name(self, name: str) -> Optional[str]:
        """Absolute ref for a local name (binding or module symbol)."""
        bound = self.summary.bindings.get(name)
        if bound is not None:
            return bound
        if name in self._toplevel_names or name in self.summary.functions:
            return f"{self.module}:{name}" if self.module else None
        return None

    # -- entry ---------------------------------------------------------------

    def extract(self) -> ModuleSummary:
        tree = self.ctx.tree
        self.summary.classes = tuple(
            node.name for node in tree.body
            if isinstance(node, ast.ClassDef))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._visit_import(node)
            elif isinstance(node, ast.ClassDef):
                self._visit_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_function(node, class_name=None)
            elif isinstance(node, (ast.If, ast.Try)):
                # Guarded imports (try/except ImportError, TYPE_CHECKING).
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        self._visit_import(child)
        return self.summary

    def _visit_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                self.summary.bindings[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(self.ctx.package_parts, node.level,
                                     node.module)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.summary.bindings[local] = f"{base}:{alias.name}"

    # -- classes and functions ----------------------------------------------

    def _visit_class(self, node: ast.ClassDef) -> None:
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_function(child, class_name=node.name)

    def _visit_function(self, node, class_name: Optional[str]) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        local_types: Dict[str, str] = {}
        blocking: List[BlockingOp] = []
        calls: List[CallSite] = []
        # First pass: local variable construction types (whole body,
        # so a later call can use an earlier assignment).
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call):
                ctor = self._constructed_type(stmt.value)
                if ctor is not None:
                    local_types[stmt.targets[0].id] = ctor
            if isinstance(stmt, ast.Assign) and node.name == "__init__" \
                    and class_name is not None \
                    and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self" \
                        and isinstance(stmt.value, ast.Call):
                    ctor = self._constructed_type(stmt.value)
                    if ctor is not None:
                        self.summary.attr_types[
                            f"{class_name}.{target.attr}"] = ctor
        # Second pass: classify every call in this function's own body
        # (nested defs have their own summaries and are skipped).
        for call in _own_calls(node):
            self._classify_call(call, class_name, local_types,
                                blocking, calls)
        self.summary.functions[qualname] = FunctionSummary(
            qualname=qualname, line=node.lineno, column=node.col_offset,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            blocking=tuple(blocking), calls=tuple(calls))
        # Nested defs (rare) are summarized as separate entries.
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._visit_function(child, class_name=None)

    def _constructed_type(self, call: ast.Call) -> Optional[str]:
        """``"module:Class"`` when ``call`` constructs a known type."""
        dotted = _dotted(call.func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            bound = self.summary.bindings.get(head)
            if bound is not None and ":" in bound and not rest:
                return bound
            if bound is not None and ":" not in bound and rest \
                    and f"{bound}.{rest}" == "socket.socket":
                return "socket:socket"
            if not rest and dotted in self.summary.classes:
                return f"{self.module}:{dotted}" if self.module else None
        return None

    def _classify_call(self, call: ast.Call,
                       class_name: Optional[str],
                       local_types: Dict[str, str],
                       blocking: List[BlockingOp],
                       calls: List[CallSite]) -> None:
        func = call.func
        line, col = call.lineno, call.col_offset
        # Builtin open().
        if isinstance(func, ast.Name) and func.id == "open":
            blocking.append(BlockingOp(
                line, col, "open() performs synchronous file I/O"))
            return
        dotted = _dotted(func)
        if dotted is not None:
            resolved = _resolve_dotted(self.summary.bindings, dotted)
            if resolved in _BLOCKING_CALLS:
                blocking.append(BlockingOp(line, col,
                                           _BLOCKING_CALLS[resolved]))
                return
            ref = self._project_ref(dotted, class_name, local_types)
            if ref is not None:
                calls.append(CallSite(line, col, ref, dotted))
                return
        # socket method calls on locally-typed sockets.
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            var_type = local_types.get(func.value.id)
            if var_type == "socket:socket" \
                    and func.attr in _BLOCKING_SOCKET_METHODS:
                blocking.append(BlockingOp(
                    line, col,
                    f"socket.{func.attr}() performs blocking network "
                    f"I/O"))

    def _project_ref(self, dotted: str, class_name: Optional[str],
                     local_types: Dict[str, str]) -> Optional[str]:
        """Resolve a call to a ``"module:Qual.name"`` project ref."""
        parts = dotted.split(".")
        # f() — plain name.
        if len(parts) == 1:
            resolved = self._resolve_name(parts[0])
            if resolved is not None and ":" in resolved:
                return resolved
            return None
        # self.method()
        if parts[0] == "self" and class_name is not None:
            if len(parts) == 2:
                return (f"{self.module}:{class_name}.{parts[1]}"
                        if self.module else None)
            # self.attr.method()
            if len(parts) == 3:
                attr_type = self.summary.attr_types.get(
                    f"{class_name}.{parts[1]}")
                if attr_type is not None and attr_type != "socket:socket":
                    return f"{attr_type}.{parts[2]}"
            return None
        # var.method() for constructor-typed locals.
        if len(parts) == 2 and parts[0] in local_types:
            typed = local_types[parts[0]]
            if typed != "socket:socket":
                return f"{typed}.{parts[1]}"
            return None
        # Class.method() / module.func() via bindings.
        bound = self.summary.bindings.get(parts[0])
        if bound is not None and ":" in bound and len(parts) == 2:
            return f"{bound}.{parts[1]}"
        if bound is not None and ":" not in bound:
            # module.attr(...) -> "module:attr" (project modules only;
            # externals were handled by the blocking table).
            return f"{bound}:{'.'.join(parts[1:])}"
        if parts[0] in self.summary.classes and len(parts) == 2 \
                and self.module:
            return f"{self.module}:{parts[0]}.{parts[1]}"
        return None


def _own_calls(func: ast.AST) -> List[ast.Call]:
    """Calls in ``func``'s body, excluding nested function bodies."""
    calls: List[ast.Call] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                calls.append(child)
            walk(child)

    walk(func)
    return calls


def summarize(ctx: FileContext) -> ModuleSummary:
    """Extract the project-graph summary of one parsed file."""
    return _Extractor(ctx).extract()


def graph_of(ctx: FileContext) -> Tuple["ProjectGraph", ModuleSummary]:
    """The project graph and this file's summary, from any context.

    The engine attaches both to the context before dispatching rules;
    a rule invoked standalone (tests, ad-hoc tooling) degrades to a
    single-file graph built from the file's own summary, so
    graph-aware rules never need a special code path.
    """
    project = getattr(ctx, "project", None)
    summary = getattr(ctx, "summary", None)
    if summary is None:
        summary = summarize(ctx)
    if project is None:
        project = ProjectGraph([summary])
    return project, summary


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

class ProjectGraph:
    """Conservative call graph over a set of module summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        #: rel_path -> summary
        self.files: Dict[str, ModuleSummary] = {
            s.rel_path: s for s in summaries}
        #: "module:qualname" -> FunctionSummary (package files only)
        self.functions: Dict[str, FunctionSummary] = {
            f"{s.module}:{qualname}": fn
            for s in summaries if s.module
            for qualname, fn in s.functions.items()}
        self._blocking_cache: Dict[str, Optional[Tuple[str, ...]]] = {}

    def function(self, ref: str) -> Optional[FunctionSummary]:
        """The summary behind a ``module:Qual.name`` ref, if known.

        ``module:attr`` refs whose module re-exports the symbol are
        not chased (conservative miss).
        """
        return self.functions.get(ref)

    def blocking_chain(self, ref: str) -> Optional[Tuple[str, ...]]:
        """Witness chain from ``ref`` to a direct blocking op, if any.

        Traverses *synchronous* project calls only: an async callee
        suspends rather than blocks at the call site (it is judged on
        its own body), and callables passed into an executor are never
        call sites in the first place.  Returns ``("mod:fn", ...,
        "<description>")`` or ``None`` when nothing blocking is
        reachable.
        """
        return self._blocking(ref, frozenset())

    def _blocking(self, ref: str,
                  visiting: frozenset) -> Optional[Tuple[str, ...]]:
        if ref in self._blocking_cache:
            return self._blocking_cache[ref]
        if ref in visiting:  # recursion cycle: assume non-blocking
            return None
        fn = self.functions.get(ref)
        if fn is None:
            return None
        if fn.blocking:
            chain = (ref, fn.blocking[0].description)
            self._blocking_cache[ref] = chain
            return chain
        visiting = visiting | {ref}
        for call in fn.calls:
            callee = self.functions.get(call.ref)
            if callee is None or callee.is_async:
                continue
            sub = self._blocking(call.ref, visiting)
            if sub is not None:
                chain = (ref,) + sub
                self._blocking_cache[ref] = chain
                return chain
        self._blocking_cache[ref] = None
        return None
