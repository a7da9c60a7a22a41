"""Domain-aware static analysis for the avipack codebase.

``avipack.analysis`` is an AST-based lint pass carrying the paper's
design-procedure philosophy (catch specification violations before
hardware — here: before a 240-candidate sweep runs) into the codebase
itself.  Each rule encodes a failure class this codebase has met:

========  ===================================================================
AVI002    error-taxonomy enforcement (avipack.errors types, picklable
          custom exceptions)
AVI003    worker-boundary pickle safety (no lambdas/local defs into pools)
AVI006    durable-write discipline (os.replace/fsync/flock/mkstemp only
          inside avipack.durability; no direct JSON writes)
AVI008    no blocking calls reachable from async code (call-graph based)
========  ===================================================================

The engine is one serial pass: parse every file, summarize it
(:mod:`avipack.analysis.project`), build the call graph, then check
every file.  AVI006 resolves call names through the file's import
bindings; AVI008 follows calls across modules through the graph.  Use
``rule_range()`` rather than hard-coding the id span.

Run it with ``python -m avipack.analysis [paths]`` (text report, exit
1 on findings) or ``--list-rules``.  A finding is silenced only inline,
with ``# avilint: disable=RULE`` on the flagged line.
"""

from .context import FileContext
from .engine import AnalysisEngine, AnalysisResult
from .findings import Finding, Severity
from .rules import Rule, all_rules, register, rule_range

__all__ = [
    "AnalysisEngine",
    "AnalysisResult",
    "FileContext",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "register",
    "rule_range",
]
