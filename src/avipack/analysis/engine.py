"""Analysis engine: one serial pass over a file tree.

The pass runs four steps, in order:

1. **Parse** — every file is read and parsed once into a
   :class:`~avipack.analysis.context.FileContext`.
2. **Summarize** — each context is lowered into a
   :class:`~avipack.analysis.project.ModuleSummary`.
3. **Graph** — the summaries assemble into a
   :class:`~avipack.analysis.project.ProjectGraph`, the conservative
   call graph AVI008 follows across modules.
4. **Check** — every rule runs on every file with the graph attached
   to the context.  Raw findings then pass through the inline
   ``# avilint: disable=`` suppressions.

A cold run over ``src`` takes a few seconds, so nothing is cached and
nothing fans out over processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import InputError
from .context import FileContext
from .findings import Finding
from .project import ProjectGraph, summarize
from .rules import Rule, all_rules
from .suppress import line_suppressions, suppresses

__all__ = ["AnalysisEngine", "AnalysisResult"]


@dataclass
class AnalysisResult:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing gates: no active findings, no parse errors."""
        return not self.findings and not self.errors

    def render_text(self) -> str:
        """Human-readable report (the CLI's output)."""
        lines = [finding.render() for finding in self.findings]
        lines.extend(f"error: {error}" for error in self.errors)
        if self.suppressed:
            lines.append(f"-- {len(self.suppressed)} finding(s) suppressed "
                         f"inline (# avilint: disable=...)")
        lines.append(
            f"analyzed {self.files_analyzed} file(s): "
            f"{len(self.findings)} active, "
            f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)


class AnalysisEngine:
    """Run the registered rule set over a file tree."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: Tuple[Rule, ...] = (tuple(rules) if rules is not None
                                        else all_rules())

    @staticmethod
    def discover(paths: Iterable[str]) -> List[str]:
        """Expand files/directories into a sorted list of ``.py`` files."""
        files: List[str] = []
        for path in paths:
            if os.path.isfile(path):
                if path.endswith(".py"):
                    files.append(path)
            elif os.path.isdir(path):
                for root, dirs, names in os.walk(path):
                    dirs[:] = sorted(d for d in dirs
                                     if d != "__pycache__"
                                     and not d.endswith(".egg-info"))
                    for name in sorted(names):
                        if name.endswith(".py"):
                            files.append(os.path.join(root, name))
            else:
                raise InputError(f"no such file or directory: {path}")
        return sorted(dict.fromkeys(_normalise(f) for f in files))

    def analyze_paths(self, paths: Iterable[str]) -> AnalysisResult:
        """Analyze every ``.py`` file under ``paths``."""
        return self.analyze_files(self.discover(paths))

    def analyze_files(self, files: Sequence[str]) -> AnalysisResult:
        result = AnalysisResult()
        contexts: List[FileContext] = []
        for rel_path in files:
            try:
                with open(rel_path, encoding="utf-8") as stream:
                    source = stream.read()
            except OSError as exc:
                result.errors.append(f"{rel_path}: {exc}")
                continue
            result.files_analyzed += 1
            try:
                contexts.append(FileContext.parse(rel_path, source))
            except InputError as exc:
                result.errors.append(str(exc))

        graph = ProjectGraph([summarize(ctx) for ctx in contexts])
        for ctx in contexts:
            ctx.project = graph
            ctx.summary = graph.files[ctx.rel_path]
            raw = [finding for rule in self.rules
                   for finding in rule.check(ctx)]
            active, suppressed = self._apply_suppressions(ctx.source, raw)
            result.findings.extend(active)
            result.suppressed.extend(suppressed)
        result.findings.sort(key=_finding_order)
        result.suppressed.sort(key=_finding_order)
        result.errors.sort()
        return result

    @staticmethod
    def _apply_suppressions(source: str, findings: Iterable[Finding]
                            ) -> Tuple[List[Finding], List[Finding]]:
        table = line_suppressions(source.splitlines())
        active: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            if table and suppresses(table, finding.line, finding.rule_id):
                suppressed.append(finding)
            else:
                active.append(finding)
        return active, suppressed


def _finding_order(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.column, finding.rule_id)


def _normalise(path: str) -> str:
    """Repo-relative forward-slash path when possible."""
    rel = os.path.relpath(path)
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")
