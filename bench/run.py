"""End-to-end benchmark of avipack design campaigns, with per-layer budgets.

Usage, from the root of a checkout::

    python bench/run.py                        # all workloads, seed 0
    python bench/run.py --workload sweep_shared --seed 3 --seconds 20
    python bench/run.py --trace                # per-layer metrics instead
    python bench/run.py --runs 5 --out A.json  # seeds 0..4, saved
    python bench/run.py compare A.json B.json  # verdict per metric x workload

A ``--workload`` run prints a table to stderr and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json`` untraced, or
every per-layer metric with ``--trace 1``.  It exits 1 when an operation
failed or a correctness check did not hold.  Without ``--workload`` each
workload runs in its own subprocess.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import Tracer, clock, load_spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(BENCH, "baseline.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Campaigns every run completes whatever ``--seconds`` says; the
#: seed-0 ranking digest covers the first three.
DIGEST_CAMPAIGNS = 3
#: A traced run alternates untraced and traced campaigns, two of each
#: at least, so tracing overhead is measured over the same period.
MIN_TRACED_CAMPAIGNS = 4
#: Units of the end-to-end timings a run prints, with their sample
#: counts, that ``BENCHMARK.json`` does not gate: on the shared
#: reference host their spread across runs exceeds the bound each would
#: need (measured in ``bench/README.md``).
REPORTED = {"candidates_per_s": "1/s", "campaign_s_p50": "s",
            "campaign_s_p90": "s", "results_query_s_p50": "s",
            "results_query_s_p90": "s", "compact_s_p50": "s"}

_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import avipack, avipack.sweep, avipack.results, avipack.retention, "
    "avipack.service; print(time.perf_counter() - start)")


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "avipack", "__init__.py")):
        raise SystemExit(f"error: no avipack source at {SRC}; run the "
                         "benchmark from the root of a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_seconds(env: Dict[str, str]) -> float:
    """Import time of the package in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                           env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    return float(probe.stdout.strip())


# -- measurement -------------------------------------------------------------


def measure(workload, seconds: float, tracer, min_campaigns: int
            ) -> Tuple[list, List[str]]:
    """Closed loop: campaigns back to back until ``seconds`` have passed.

    A raised exception is a failed operation and ends the loop.
    """
    records: list = []
    errors: List[str] = []
    deadline = clock() + seconds
    index = 0
    while index < min_campaigns or clock() < deadline:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            records.append(workload.campaign(index, traced))
        except Exception as exc:  # the run reports it and exits non-zero
            errors.append(f"campaign {index}: {type(exc).__name__}: {exc}")
            break
        finally:
            if traced:
                tracer.uninstall()
        index += 1
    return records, errors


def ranking_digest(records: Sequence) -> str:
    """SHA-256 over the rankings of the first campaigns, in rank order."""
    digest = hashlib.sha256()
    for record in records[:DIGEST_CAMPAIGNS]:
        digest.update(b"campaign\n")
        for fingerprint, cost, worst in record.ranking:
            digest.update(f"{fingerprint} {cost!r} {worst!r}\n".encode())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def percentile(samples: Sequence[float], p: int) -> float:
    """The ``p``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[p - 1]


def end_to_end(records: Sequence, setup_samples: Sequence[float]
               ) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for every end-to-end quantity.

    ``BENCHMARK.json`` gates some of them; the rest (:data:`REPORTED`)
    are printed for readers only.
    """
    n = len(records)
    campaign = [r.campaign_end - r.start for r in records]
    query = [r.query_end - r.query_start for r in records]
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "candidates_per_s": (sum(r.journalled for r in records)
                             / sum(r.end - r.start for r in records), n),
        "campaign_s_p50": (percentile(campaign, 50), n),
        "campaign_s_p90": (percentile(campaign, 90), n),
        "results_query_s_p50": (percentile(query, 50), n),
        "results_query_s_p90": (percentile(query, 90), n),
        "disk_bytes_per_candidate": (
            sum(r.disk_bytes for r in records)
            / sum(r.candidates for r in records), n),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    compact = [r.query_start - r.campaign_end for r in records]
    if any(compact):  # only crash_resume compacts between run and query
        values["compact_s_p50"] = (percentile(compact, 50), n)
    return values


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_budget(spans: Sequence[Dict[str, Any]], records: Sequence,
                 bench_pid: int) -> Tuple[Dict[str, Tuple[float, int]],
                                          Dict[str, List[float]]]:
    """Per-layer metrics of the traced campaigns, plus the full budget.

    Every ``_s`` metric is self seconds per traced campaign, summed over
    processes (benchmark, server, pool workers); counts are per
    campaign.  The budget maps every span name to ``[calls, self_s]``
    per campaign.
    """
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    starts = [r.start for r in traced]
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    first_eval = [math.inf] * n
    first_outcome = [math.inf] * n
    last_outcome = [-math.inf] * n
    evaluate_s = capacity_s = root_s = 0.0
    hits = misses = evaluations = level3_calls = 0
    solver: Dict[str, float] = defaultdict(float)
    for span in spans:
        k = bisect.bisect_right(starts, span["start"]) - 1
        if k < 0 or span["start"] > traced[k].end:
            continue
        name = span["name"]
        self_s[name] += span["self"]
        calls[name] += 1
        duration = span["end"] - span["start"]
        if span["pid"] == bench_pid and span["parent"] is None:
            root_s += duration
        if name == "sweep.evaluate":
            first_eval[k] = min(first_eval[k], span["start"])
            evaluate_s += duration
            evaluations += 1
            hits += span.get("hits", 0)
            misses += span.get("misses", 0)
            for kernel, (factor, wall) in span.get("perf", {}).items():
                if kernel == "conduction.steady":
                    solver["conduction_s"] += wall
                    solver["conduction_factorizations"] += factor
        elif name == "durability.journal.record_outcome":
            first_outcome[k] = min(first_outcome[k], span["end"])
            last_outcome[k] = max(last_outcome[k], span["end"])
        elif name in ("sweep.run", "sweep.resume"):
            capacity_s += span.get("workers", 1) * duration
        elif name == "core.level3" and span["parent"] != "core.level3":
            level3_calls += 1
    wall = sum(r.end - r.start for r in traced)
    per = _ratio(1.0, n)

    def rate(records_: Sequence) -> float:
        return _ratio(sum(r.journalled for r in records_),
                      sum(r.end - r.start for r in records_))

    journal = [name for name in self_s
               if name.startswith("durability.journal.")]
    metrics = {
        "campaign.pre_dispatch_s": _mean(
            [first_eval[k] - traced[k].start for k in range(n)
             if first_eval[k] < math.inf]),
        "campaign.first_outcome_s": _mean(
            [first_outcome[k] - traced[k].start for k in range(n)
             if first_outcome[k] < math.inf]),
        "campaign.post_s": _mean(
            [traced[k].campaign_end - last_outcome[k] for k in range(n)
             if last_outcome[k] > -math.inf]),
        "campaign.overhead_s": _mean(
            [r.campaign_end - r.start - r.runner_wall_s for r in traced]),
        "sweep.dispatch_s": (self_s["sweep.run"]
                             + self_s["sweep.resume"]) * per,
        "sweep.worker_busy": _ratio(evaluate_s, capacity_s),
        "sweep.evaluate_s": self_s["sweep.evaluate"] * per,
        "sweep.build_s": self_s["sweep.build"] * per,
        "sweep.fingerprint_s": self_s["sweep.fingerprint"] * per,
        "sweep.cache_hit_ratio": _ratio(hits, hits + misses),
        "core.level1_s": self_s["core.level1"] * per,
        "core.level2_s": self_s["core.level2"] * per,
        "core.level3_s": self_s["core.level3"] * per,
        "core.level3_calls": level3_calls * per,
        "core.mechanical_s": self_s["core.mechanical"] * per,
        "thermal.conduction_steady_s": solver["conduction_s"] * per,
        "thermal.conduction_factorizations":
            solver["conduction_factorizations"] * per,
        "thermal.candidates_per_factorization": _ratio(
            evaluations, solver["conduction_factorizations"]),
        "durability.journal_append_s": sum(self_s[name]
                                           for name in journal) * per,
        "durability.journal_records": sum(
            calls[name] for name in journal if ".record_" in name) * per,
        "durability.fsyncs": calls["durability.fsync"] * per,
        "durability.fsync_s": self_s["durability.fsync"] * per,
        "results.write_s": (self_s["results.write"] + self_s["results.close"]
                            + self_s["results.publish"]) * per,
        "results.rows_ingested": calls["results.write"] * per,
        "results.shards_written": calls["results.publish"] * per,
        "results.open_s": self_s["results.open"] * per,
        "results.query_s": self_s["results.query"] * per,
        "trace.coverage": _ratio(root_s, wall),
        "trace.overhead": 1.0 - _ratio(rate(traced), rate(plain)),
    }
    budget = {name: [calls[name] * per, self_s[name] * per]
              for name in self_s}
    return {name: (value, n) for name, value in metrics.items()}, budget


def run_workload(name: str, seed: int = 0, seconds: Optional[float] = None,
                 trace: bool = False,
                 sizes: Optional[Dict[str, int]] = None) -> Dict[str, Any]:
    """Run one workload in this process; returns the result object.

    ``seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
    ``sizes`` overrides entries of the workload's default sizes (tests
    run tiny campaigns this way); the pinned seed-0 ranking digest is
    checked only at the default sizes.
    """
    _require_source()
    import workloads

    spec = load_spec()
    if seconds is None:
        seconds = float(spec["run_seconds"])
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    tracer = None
    if trace:
        os.makedirs(os.path.join(work, "trace"))
        tracer = Tracer(os.path.join(work, "trace"), flush_roots=False)
    ctx = workloads.Context(
        work=work, src=SRC, seed=seed,
        sizes=dict(workloads.DEFAULT_SIZES[name], **(sizes or {})),
        tracer=tracer)
    workload = workloads.WORKLOADS[name](ctx)
    setup_samples: List[float] = []
    try:
        for repeat in range(1 if trace else ctx.sizes["setup_repeats"]):
            if repeat:
                workload.teardown()
            imports = import_seconds(ctx.child_env())
            start = clock()
            workload.setup()
            setup_samples.append(imports + clock() - start)
        records, errors = measure(
            workload, seconds, tracer,
            MIN_TRACED_CAMPAIGNS if trace else DIGEST_CAMPAIGNS)
    finally:
        workload.teardown()
        spans = load_spans(tracer.trace_dir) if trace else []
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(WORK_ROOT)

    attempted = sum(r.ops for r in records) + len(errors)
    messages = errors + [f"campaign {i}: {failure}"
                         for i, r in enumerate(records)
                         for failure in r.failures]
    failed = len(errors) + sum(min(len(r.failures), r.ops) for r in records)
    if len(records) >= DIGEST_CAMPAIGNS:
        digest = ranking_digest(records)
        print(f"{name}: seed-{seed} ranking digest {digest}",
              file=sys.stderr)
        pinned = None
        if seed == 0 and sizes is None and os.path.exists(BASELINE_PATH):
            with open(BASELINE_PATH, encoding="utf-8") as stream:
                pinned = json.load(stream).get("digests", {}).get(name)
        if pinned is not None:
            attempted += 1
            if digest != pinned:
                failed += 1
                messages.append(f"seed-0 ranking digest {digest} differs "
                                f"from the pinned {pinned}")
    for message in messages:
        print(f"{name}: FAILED {message}", file=sys.stderr)
    if not records:
        raise SystemExit(f"error: {name}: no campaign completed")

    if trace:
        values, budget = layer_budget(spans, records, os.getpid())
        declared = spec["per_layer"]
        _print_budget(name, budget)
    else:
        values = end_to_end(records, setup_samples)
        declared = spec["end_to_end"]
    units = dict(REPORTED, **{m["name"]: m["unit"] for m in declared})
    _print_metrics(name, values, units, {m["name"] for m in declared})
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in declared}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _print_metrics(workload: str, values: Dict[str, Tuple[float, int]],
                   units: Dict[str, str], gated: set) -> None:
    print(f"\n{workload}", file=sys.stderr)
    for name, (value, samples) in values.items():
        note = "" if name in gated else "  (reported, not gated)"
        print(f"  {name:<36} {value:>14.6g} {units[name]:<6} "
              f"n={samples}{note}", file=sys.stderr)


def _print_budget(workload: str, budget: Dict[str, List[float]]) -> None:
    print(f"\n{workload}: span budget per traced campaign "
          "(calls, self seconds)", file=sys.stderr)
    for name, (count, self_s) in sorted(budget.items(),
                                        key=lambda item: -item[1][1]):
        print(f"  {name:<40} {count:>12.1f} {self_s:>12.6f}",
              file=sys.stderr)


# -- all workloads -----------------------------------------------------------


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Each workload in its own subprocess, ``--runs`` seeds each."""
    runs: List[Dict[str, Any]] = []
    for repeat in range(args.runs):
        for name in names:
            seed = args.seed + repeat
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            proc = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            runs.append({"workload": name, "seed": seed,
                         "trace": args.trace, "exit": proc.returncode,
                         "result": json.loads(lines[-1]) if lines else None})
    print(f"\n{'workload':<16} {'metric':<36} {'median':>14} unit  runs")
    for name in names:
        done = [run["result"] for run in runs
                if run["workload"] == name and run["result"]]
        for metric in (done[0]["metrics"] if done else {}):
            values = [result["metrics"][metric]["value"] for result in done]
            unit = done[0]["metrics"][metric]["unit"]
            print(f"{name:<16} {metric:<36} "
                  f"{statistics.median(values):>14.6g} {unit:<5} "
                  f"{len(values)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(runs, stream, indent=1)
    ok = all(run["exit"] == 0 and run["result"]
             and run["result"]["correct"] for run in runs)
    return 0 if ok else 1


# -- compare -----------------------------------------------------------------


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = _quartiles(values)
    return _ratio(q3 - q1, abs(statistics.median(values)))


def judge(parent: Sequence[float], change: Sequence[float], better: str,
          bound: float) -> str:
    """better / same / worse / unresolved for one metric x workload.

    Unresolved when either side's quartile spread exceeds the bound,
    unless every run of the change beats every run of the parent.
    Better when the change wins at least nine tenths of the run pairs
    and the medians differ by more than the parent's quartile spread.
    Worse when the change's median is worse by more than the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    median_a = statistics.median(parent)
    q1a, q3a = _quartiles(parent)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if max(_spread(parent), _spread(change)) > bound and not all_better:
        return "unresolved"
    gain = sign * (statistics.median(change) - median_a)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "better"
    if -gain > bound * abs(median_a):
        return "worse"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    """Judge every end-to-end metric x workload from two sets of runs."""
    spec = load_spec()
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as stream:
            sets.append([run for run in json.load(stream)
                         if not run["trace"] and run["result"]])
    verdicts = []
    print(f"{'workload':<16} {'metric':<26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            columns = [[run["result"]["metrics"][metric["name"]]["value"]
                        for run in runs if run["workload"] == workload]
                       for runs in sets]
            if not all(columns):
                continue
            a, b = columns
            verdict = judge(a, b, metric["better"], metric["bound"])
            verdicts.append(verdict)
            cells = []
            for values in (a, b):
                q1, q3 = _quartiles(values)
                cells.append(f"{statistics.median(values):.5g} "
                             f"[{q1:.5g}, {q3:.5g}]")
            change = (statistics.median(b) / statistics.median(a) - 1.0
                      if statistics.median(a) else 0.0)
            print(f"{workload:<16} {metric['name']:<26} {cells[0]:>34} "
                  f"{cells[1]:>34} {change:>+8.1%} {metric['bound']:>6.0%} "
                  f"{verdict}")
    return 1 if {"worse", "unresolved"} & set(verdicts) else 0


# -- command line ------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("parent", help="runs file (--out) of A")
        parser.add_argument("change", help="runs file (--out) of B")
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured phase length per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="all workloads: runs per workload, with "
                             "seeds --seed, --seed+1, ...")
    parser.add_argument("--out", help="all workloads: write every run's "
                                      "result to this JSON file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, names)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
