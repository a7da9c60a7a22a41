"""Shared write/compare harness for the committed ``BENCH_*.json`` baselines.

Each suite module (``bench_baseline.py``, ``bench_results.py``,
``bench_retention.py``) keeps only its bench table — a ``run_benches``
returning ``{"benches": {name: {"median_ms": ..., "counters": {...}}},
...}`` — and declares one :class:`Suite`.  The harness does the rest:

* ``write`` re-measures and atomically replaces the committed baseline;
* ``compare`` re-measures and fails (exit 1) when a median exceeds the
  ``--tolerance`` factor times its baseline (default 3x, so
  shared-runner noise never fails a build), when any counter differs
  from its baseline value in either direction.  ``--report`` writes
  the comparison document as JSON.

Usage, from the repository root::

    python benchmarks/bench_baseline.py write     # refresh the baseline
    python benchmarks/bench_baseline.py compare   # exit 1 on regression
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from avipack.durability.files import atomic_write

__all__ = ["Suite", "median_ms", "timed_samples"]


def timed_samples(call: Callable[[], object], rounds: int) -> List[float]:
    """Wall times [s] of ``rounds`` back-to-back calls."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return samples


def median_ms(samples: List[float]) -> float:
    """Median of wall-time samples [s] in milliseconds, as pinned."""
    return round(statistics.median(samples) * 1e3, 4)


@dataclass(frozen=True)
class Suite:
    """One committed baseline and the bench table that measures it."""

    #: Script file name, quoted in the missing-baseline hint.
    script: str
    #: One-line description for ``--help``.
    title: str
    #: Default location of the committed ``BENCH_*.json``.
    baseline: pathlib.Path
    #: ``run_benches(rounds) -> document`` of the suite.
    run_benches: Callable[[int], Dict]
    #: Default timing rounds.
    rounds: int
    #: What a drifted counter means, e.g. ``"caching"``.
    discipline: str

    def write(self, path: pathlib.Path, rounds: int) -> int:
        document = self.run_benches(rounds)
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
        atomic_write(str(path), text.encode())
        print(f"wrote {path} ({len(document['benches'])} benches)")
        return 0

    def compare(self, path: pathlib.Path, rounds: int, tolerance: float,
                report_path: Optional[pathlib.Path] = None) -> int:
        if not path.exists():
            print(f"ERROR: baseline {path} not found; run "
                  f"`python benchmarks/{self.script} write` and commit it")
            return 2
        baseline = json.loads(path.read_text())
        current = self.run_benches(rounds)
        failures: List[str] = []
        benches: Dict[str, Dict] = {}
        width = max(len(name) for name in baseline["benches"]) + 4
        for name, pinned in sorted(baseline["benches"].items()):
            measured = current["benches"].get(name)
            if measured is None:
                failures.append(f"{name}: bench disappeared")
                benches[name] = {"verdict": "MISSING", "baseline": pinned}
                continue
            benches[name] = self._compare_one(name, pinned, measured,
                                              tolerance, failures, width)
        comparison = {"schema": 1, "tolerance": tolerance, "rounds": rounds,
                      "benches": benches, "failures": failures,
                      "ok": not failures}
        if report_path is not None:
            text = json.dumps(comparison, indent=2, sort_keys=True) + "\n"
            atomic_write(str(report_path), text.encode())
            print(f"comparison written to {report_path}")
        if failures:
            print("\n" + "\n".join(f"FAIL: {line}" for line in failures))
            return 1
        print("\nall benches within tolerance, counters exact")
        return 0

    def _compare_one(self, name: str, pinned: Dict, measured: Dict,
                     tolerance: float, failures: List[str],
                     width: int) -> Dict:
        limit = pinned["median_ms"] * tolerance
        verdict = "ok"
        if measured["median_ms"] > limit:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: {measured['median_ms']:.3f} ms exceeds "
                f"{tolerance:g}x baseline {pinned['median_ms']:.3f} ms")
        # Compare the union of baseline and measured counters, so a
        # counter that drifted is always reported by name with its
        # old/new values — including counters the baseline has never
        # seen (or that vanished from the measurement).
        for counter in sorted(set(pinned["counters"])
                              | set(measured["counters"])):
            expected = pinned["counters"].get(counter)
            got = measured["counters"].get(counter)
            if got != expected:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: counter {counter} drifted: baseline "
                    f"{expected} -> measured {got} "
                    f"({self.discipline} discipline broken)")
        print(f"{name:<{width}} {measured['median_ms']:>9.3f} ms "
              f"(baseline {pinned['median_ms']:.3f}, "
              f"limit {limit:.3f})  {verdict}")
        return {
            "baseline_ms": pinned["median_ms"],
            "measured_ms": measured["median_ms"],
            "limit_ms": round(limit, 4),
            "baseline_counters": pinned["counters"],
            "measured_counters": measured["counters"],
            "verdict": verdict,
        }

    def main(self, argv: Optional[List[str]] = None) -> int:
        parser = argparse.ArgumentParser(description=self.title)
        parser.add_argument("mode", choices=("write", "compare"))
        parser.add_argument("--baseline", type=pathlib.Path,
                            default=self.baseline)
        parser.add_argument("--rounds", type=int, default=self.rounds)
        parser.add_argument("--tolerance", type=float, default=3.0,
                            help="allowed slow-down factor (default 3x)")
        parser.add_argument("--report", type=pathlib.Path, default=None,
                            help="write the comparison document (JSON) "
                                 "here (compare mode only)")
        args = parser.parse_args(argv)
        if args.mode == "write":
            return self.write(args.baseline, args.rounds)
        return self.compare(args.baseline, args.rounds, args.tolerance,
                            args.report)
