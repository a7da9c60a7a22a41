"""Batched-solver throughput benchmarks and baseline-gate checks.

Companion to ``test_sweep_performance.py``: that file guards the
process fan-out / caching layer, this one guards the *vectorized batch
core* underneath it (:mod:`avipack.thermal.batch`).  The headline gate:
on a 200-candidate topology-sharing grid, one batched solve must beat
200 per-candidate solves by at least :data:`SPEEDUP_FLOOR`, while
amortizing at least :data:`CPF_FLOOR` candidates over every LU
factorization — and ``BENCH_solver.json`` must pin those counters so CI
catches any regression of the batching discipline.
"""

import json
import pathlib
import time

from bench_baseline import BASELINE, SUITE, build_candidate_grid

from avipack import perf
from avipack.thermal.batch import solve_batched

#: Minimum batched-vs-scalar solve-throughput ratio on the 200-candidate
#: topology-sharing grid (build cost excluded on both sides, so the
#: ratio measures the solver paths, not Python object construction).
SPEEDUP_FLOOR = 5.0

#: Minimum candidates amortized per LU factorization on the grid.
CPF_FLOOR = 50.0

#: Timing rounds (best-of, to shrug off shared-runner noise).
ROUNDS = 3


def _time_scalar_grid():
    """Solve-only wall time of the per-candidate path, networks fresh."""
    best = float("inf")
    for _ in range(ROUNDS):
        networks = build_candidate_grid()
        t0 = time.perf_counter()
        for net in networks:
            net.solve()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_batched_grid():
    """Solve-only wall time of the batched path, networks fresh."""
    best = float("inf")
    for _ in range(ROUNDS):
        networks = build_candidate_grid()
        t0 = time.perf_counter()
        outcomes = solve_batched(networks)
        elapsed = time.perf_counter() - t0
        assert all(o.ok and o.batched for o in outcomes)
        best = min(best, elapsed)
    return best


def test_batched_grid_throughput(table_printer):
    """200 topology-sharing candidates: batched >= 5x scalar throughput."""
    t_scalar = _time_scalar_grid()
    t_batched = _time_batched_grid()
    speedup = t_scalar / t_batched

    perf.reset("network.batched")
    networks = build_candidate_grid()
    outcomes = solve_batched(networks)
    stats = perf.stats("network.batched")

    table_printer(
        "Batched sweep throughput (200-candidate grid)",
        ["path", "wall [ms]", "solves", "LU", "cand/LU"],
        [["scalar", f"{t_scalar * 1e3:.1f}", 200, 200, 1],
         ["batched", f"{t_batched * 1e3:.1f}", stats.solves,
          stats.factorizations,
          f"{stats.candidates_per_factorization:.0f}"],
         ["speedup", f"{speedup:.1f}x", "", "", ""]])

    assert len(outcomes) == 200
    assert all(o.ok and o.batched for o in outcomes)
    assert stats.batched_solves >= 1
    assert stats.batch_width == 200
    assert stats.candidates_per_factorization >= CPF_FLOOR
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched path only {speedup:.1f}x faster than per-candidate "
        f"(scalar {t_scalar * 1e3:.1f} ms, batched "
        f"{t_batched * 1e3:.1f} ms)")


def test_batched_parity_on_grid():
    """Batched temperatures match scalar solves to 1e-10 relative."""
    networks = build_candidate_grid()
    outcomes = solve_batched(networks)
    for net, outcome in zip(build_candidate_grid(), outcomes):
        reference = net.solve()
        for name, expected in reference.temperatures.items():
            got = outcome.solution.temperatures[name]
            assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_baseline_pins_batched_counters():
    """BENCH_solver.json records the batched grid with cpf >= 50."""
    document = json.loads(BASELINE.read_text())
    bench = document["benches"]["sweep_batched_grid"]
    counters = bench["counters"]
    assert counters["batched_solves"] >= 1
    assert counters["batch_width"] >= 200
    assert counters["factorizations"] >= 1
    cpf = counters["batch_width"] / counters["factorizations"]
    assert cpf >= CPF_FLOOR
    # The scalar twin is pinned too, so the committed file documents
    # the amortization (200 factorizations vs 2 for the same grid).
    scalar = document["benches"]["sweep_scalar_grid"]["counters"]
    assert scalar["factorizations"] == scalar["solves"]


def test_compare_reports_which_counter_drifted(tmp_path, capsys):
    """A drifted counter fails compare with its name and old/new values.

    Exercises the actionable-failure contract end to end on a doctored
    baseline: the message must carry the counter name and both values,
    and the ``--report`` artifact must record the regression verdict.
    """
    baseline = json.loads(BASELINE.read_text())
    doctored = json.loads(json.dumps(baseline))
    bench = doctored["benches"]["sweep_batched_grid"]
    bench["counters"]["factorizations"] = 1  # pretend it was better
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(doctored))
    report_path = tmp_path / "compare.json"

    rc = SUITE.compare(pathlib.Path(baseline_path), rounds=1,
                       tolerance=100.0, report_path=report_path)
    out = capsys.readouterr().out
    assert rc == 1
    assert "counter factorizations drifted" in out
    assert "baseline 1 -> measured 2" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is False
    verdicts = report["benches"]["sweep_batched_grid"]
    assert verdicts["verdict"] == "REGRESSION"
    assert any("factorizations" in line for line in report["failures"])
