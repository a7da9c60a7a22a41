"""Per-file analysis context shared by every rule.

Parsing a file once (source, AST, parent links, enclosing-symbol
map) and handing the result to all rules keeps the engine
O(files), not O(files x rules), and gives rules a uniform way to locate
nodes, resolve enclosing scopes and emit findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from ..errors import InputError

__all__ = ["FileContext"]

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    rel_path: str
    source: str
    tree: ast.Module
    package_parts: Tuple[str, ...] = ()
    _parents: Dict[int, ast.AST] = field(default_factory=dict, repr=False)
    _symbols: Dict[int, str] = field(default_factory=dict, repr=False)
    #: Attached by the engine before the check step: the
    #: :class:`~avipack.analysis.project.ProjectGraph` and this file's
    #: :class:`~avipack.analysis.project.ModuleSummary`.  ``None`` when
    #: a rule is driven standalone (rules fall back to a single-file
    #: graph via :func:`~avipack.analysis.project.graph_of`).
    project: Optional[object] = field(default=None, repr=False)
    summary: Optional[object] = field(default=None, repr=False)

    @classmethod
    def parse(cls, rel_path: str, source: str) -> "FileContext":
        """Build a context from raw source (raises InputError on syntax)."""
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as exc:
            raise InputError(
                f"cannot parse {rel_path}: {exc.msg} (line {exc.lineno})"
            ) from exc
        ctx = cls(rel_path=rel_path, source=source, tree=tree,
                  package_parts=_package_parts(rel_path))
        ctx._link()
        return ctx

    # -- structure -----------------------------------------------------------

    def _link(self) -> None:
        """Record parent pointers and enclosing symbol qualnames."""
        def visit(node: ast.AST, symbol: str) -> None:
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node
                child_symbol = symbol
                if isinstance(child, _SCOPE_NODES):
                    child_symbol = (f"{symbol}.{child.name}" if symbol
                                    else child.name)
                self._symbols[id(child)] = child_symbol
                visit(child, child_symbol)

        self._symbols[id(self.tree)] = ""
        visit(self.tree, "")

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """Syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def symbol(self, node: ast.AST) -> str:
        """Dotted name of the scope containing ``node`` ('' at module)."""
        return self._symbols.get(id(node), "")

    # -- classification ------------------------------------------------------

    @property
    def in_package(self) -> bool:
        """True when the file belongs to the ``avipack`` package."""
        return self.package_parts[:1] == ("avipack",)


def _package_parts(rel_path: str) -> Tuple[str, ...]:
    """Dotted-module parts of ``rel_path`` rooted at ``avipack``.

    ``src/avipack/sweep/runner.py`` -> ``("avipack", "sweep", "runner")``;
    files outside the package return an empty tuple.
    """
    parts = rel_path.replace("\\", "/").split("/")
    if "avipack" not in parts:
        return ()
    parts = parts[parts.index("avipack"):]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)
