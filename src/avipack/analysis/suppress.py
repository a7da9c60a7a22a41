"""Inline suppression directives.

A finding is suppressed by putting a directive comment on the same line
as the flagged construct (for multi-line statements: the line the
statement *starts* on, which is where findings anchor)::

    raise ValueError("legacy API")  # avilint: disable=AVI002
    os.replace(tmp, path)           # avilint: disable=AVI006,AVI008
    legacy_shim()                   # avilint: disable=all

``disable=all`` silences every rule on that line.  Suppressions are
counted and reported separately, so a suppressed finding never gates CI
but also never disappears silently.  They are the analyzer's only
escape hatch.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Sequence

__all__ = ["SUPPRESS_ALL", "line_suppressions", "suppresses"]

#: Sentinel rule id meaning "every rule".
SUPPRESS_ALL = "ALL"

_DIRECTIVE = re.compile(
    r"#\s*avilint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")


def line_suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> set of suppressed rule ids on that line."""
    table: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "avilint" not in text:
            continue
        match = _DIRECTIVE.search(text)
        if match is None:
            continue
        rules = frozenset(
            SUPPRESS_ALL if token.strip().lower() == "all"
            else token.strip().upper()
            for token in match.group(1).split(","))
        table[number] = rules
    return table


def suppresses(table: Dict[int, FrozenSet[str]], line: int,
               rule_id: str) -> bool:
    """True when ``rule_id`` is disabled on ``line`` by the table."""
    rules = table.get(line)
    if rules is None:
        return False
    return SUPPRESS_ALL in rules or rule_id.upper() in rules
