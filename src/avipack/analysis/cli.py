"""Command-line entry point: ``python -m avipack.analysis``.

Examples::

    python -m avipack.analysis src
    python -m avipack.analysis src/avipack/sweep
    python -m avipack.analysis --list-rules

Exit codes: 0 clean, 1 active findings or parse errors, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import AvipackError
from .engine import AnalysisEngine
from .rules import all_rules, rule_range

__all__ = ["main"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m avipack.analysis",
        description=("avipack domain-aware static analysis "
                     f"({rule_range()})"))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files/directories to analyze (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name}  [{rule.severity.value}]")
        return 0

    try:
        result = AnalysisEngine().analyze_paths(args.paths)
    except AvipackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render_text())
    return 0 if result.clean else 1
