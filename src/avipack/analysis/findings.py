"""Finding records produced by the static-analysis rules.

A :class:`Finding` is a structured lint result: rule id, severity,
location, human message and (optionally) a short suggestion.  Findings
are plain frozen dataclasses, so they compare by value, which the
analyzer's own tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Finding", "Severity"]


class Severity(enum.Enum):
    """How seriously a finding should be taken.

    Every active (non-suppressed) finding gates the CI job regardless
    of severity; the distinction is informational.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One static-analysis result.

    Attributes
    ----------
    rule_id:
        Stable rule identifier, e.g. ``"AVI002"``.
    severity:
        :class:`Severity` of the finding.
    path:
        File the finding is in, as a forward-slash relative path.
    line / column:
        1-based line and 0-based column of the offending node.
    message:
        Human-readable description of the problem.
    suggestion:
        Optional short hint on how to fix it.
    symbol:
        Enclosing function/class qualname.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    column: int
    message: str
    suggestion: str = ""
    symbol: str = ""

    def render(self) -> str:
        """One-line ``path:line:col: RULE [severity] message`` form."""
        text = (f"{self.path}:{self.line}:{self.column}: "
                f"{self.rule_id} [{self.severity.value}] {self.message}")
        if self.suggestion:
            text += f"  ({self.suggestion})"
        return text
