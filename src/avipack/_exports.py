"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its modules declares
them in one mapping, from the defining module (relative to the package)
to the names it re-exports, and binds the two module hooks and the sorted
export list this helper returns::

    _EXPORTS = {".levels": ("run_level1", "run_pyramid")}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

A package that also imports names eagerly keeps its own ``__all__``.

Importing the package then executes none of those modules; the first
access to a name imports its defining module.  Nothing is cached in the
package's globals: every access reads the name from its defining module
again, so a later rebinding there (a test double, a tracing wrapper and
its removal) is always what the package hands out.  A subpackage or
module listed in ``submodules`` is imported on first access, and the
import system then binds it in the package as usual.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]],
                 submodules: Iterable[str] = ()
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]],
                            List[str]]:
    """The ``__getattr__`` and ``__dir__`` hooks of ``package``, and the
    sorted names they resolve."""
    owners: Dict[str, str] = {name: module
                              for module, names in exports.items()
                              for name in names}
    modules = frozenset(submodules)
    owners.update((name, f".{name}") for name in modules)

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        target = importlib.import_module(module, package)
        return target if name in modules else getattr(target, name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__, sorted(owners)
