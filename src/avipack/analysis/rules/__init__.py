"""Rule base class and registry for :mod:`avipack.analysis`.

Every rule is a small stateless object with a stable ``rule_id`` and a
``check`` method yielding :class:`~avipack.analysis.findings.Finding`
records for one parsed file.  Rules self-register at import time via
:func:`register`; the engine iterates :func:`all_rules` so adding a
rule is: write the module, import it below, done.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Tuple

from ...errors import InputError
from ..context import FileContext
from ..findings import Finding, Severity

__all__ = ["Rule", "all_rules", "register", "rule_range"]


class Rule:
    """Base class for one static-analysis rule."""

    #: Stable identifier, e.g. ``"AVI002"``.
    rule_id: str = ""
    #: Short human name shown by ``--list-rules``.
    name: str = ""
    #: Default severity of findings this rule emits.
    severity: Severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                suggestion: str = "") -> Finding:
        """Build a finding anchored at ``node`` in ``ctx``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            message=message,
            suggestion=suggestion,
            symbol=ctx.symbol(node),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.rule_id:
        raise InputError(f"rule {cls.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise InputError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, ordered by rule id."""
    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


def rule_range() -> str:
    """Human-readable id range of the registry, e.g. ``AVI002-AVI008``.

    Derived, never hardcoded: CLI help and docs pull from here so a new
    rule cannot leave a stale range behind.
    """
    rules = all_rules()
    if not rules:
        return "none"
    if len(rules) == 1:
        return rules[0].rule_id
    return f"{rules[0].rule_id}-{rules[-1].rule_id}"


# Import rule modules for their registration side effect.  Keep this at
# the bottom so the base class exists when the modules load.
from . import async_blocking  # noqa: E402,F401
from . import atomic_writes  # noqa: E402,F401
from . import error_taxonomy  # noqa: E402,F401
from . import pickle_safety  # noqa: E402,F401
