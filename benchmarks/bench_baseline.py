"""Committed solver-benchmark baseline: write and regression-compare.

``BENCH_solver.json`` at the repository root pins median timings and
factorization-reuse counters for the solver kernels.  CI re-measures
and compares with a generous tolerance (timings are allowed to grow by
the ``--tolerance`` factor, default 3x, so shared-runner noise never
fails a build), while the *counters* are compared exactly — a lost
factorization cache is a real regression no matter how fast the box.

Usage::

    python benchmarks/bench_baseline.py write     # refresh the baseline
    python benchmarks/bench_baseline.py compare   # exit 1 on regression

Run from the repository root (or pass ``--baseline`` explicitly).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

from avipack import perf
from avipack.packaging.formfactors import ATR_WIDTHS, AtrCase
from avipack.packaging.pcb import dummy_resistive_pcb
from avipack.thermal.batch import solve_batched
from avipack.thermal.conduction import clear_factor_cache
from avipack.thermal.network import ThermalNetwork
from avipack.thermal.transient import TransientNetworkSolver

BASELINE = pathlib.Path(__file__).resolve().parent.parent \
    / "BENCH_solver.json"

#: Counters whose baseline values must be reproduced exactly.
EXACT_COUNTERS = ("compilations", "assemblies", "factorizations",
                  "factorization_reuses", "solves", "iterations",
                  "batched_solves", "batch_width")


def build_linear_network(n_chains=30, chain_length=6):
    """The 180-node linear network from test_perf_network_solve."""
    net = ThermalNetwork()
    net.add_node("sink", fixed_temperature=300.0)
    for c in range(n_chains):
        previous = "sink"
        for i in range(chain_length):
            name = f"n{c}_{i}"
            net.add_node(name, heat_load=1.0)
            net.add_resistance(name, previous, 0.5)
            previous = name
    return net


def build_nonlinear_network(n_nodes=20):
    """The radiation-like star from test_perf_nonlinear_network."""
    net = ThermalNetwork()
    net.add_node("sink", fixed_temperature=300.0)
    for i in range(n_nodes):
        net.add_node(f"n{i}", heat_load=5.0)
        net.add_conductance(
            f"n{i}", "sink",
            lambda a, b: 1e-9 * (a * a + b * b) * (a + b))
    return net


def build_radiation_chain(n_stages=15):
    """The ~200-iteration chain from test_perf_nonlinear_fixed_point_200."""
    net = ThermalNetwork()
    net.add_node("amb", fixed_temperature=260.0)
    previous = "amb"
    for i in range(n_stages):
        name = f"stage{i}"
        net.add_node(name, heat_load=3.0)
        net.add_conductance(name, previous,
                            lambda a, b: 5.67e-10 * (a * a + b * b)
                            * (a + b))
        previous = name
    return net


def build_transient_chain(n_nodes=30):
    """The ladder from test_perf_transient_constant_500_steps."""
    net = ThermalNetwork()
    net.add_node("amb", fixed_temperature=300.0)
    previous = "amb"
    for i in range(n_nodes):
        name = f"m{i}"
        net.add_node(name, heat_load=0.5, capacitance=20.0)
        net.add_conductance(name, previous, 2.0)
        previous = name
    return net


def build_candidate_grid(n_powers=100, g_scales=(1.0, 1.6),
                         chain_length=10):
    """A 200-candidate topology-sharing sweep grid, built fresh.

    Every candidate is the same board-stack chain; candidates differ in
    the per-board power level (the multi-RHS axis — same operator,
    different right-hand side) and in a global conductance scale (the
    stacked-assembly axis — one sparse template, different data).  Each
    call rebuilds the networks, as a sweep does, so compile/assembly
    counters are deterministic per call.
    """
    networks = []
    for scale in g_scales:
        for k in range(n_powers):
            power = 2.0 + 0.08 * k
            net = ThermalNetwork()
            net.add_node("sink", fixed_temperature=300.0)
            previous = "sink"
            for i in range(chain_length):
                name = f"seg{i}"
                net.add_node(name, heat_load=power / chain_length)
                net.add_conductance(name, previous, 4.0 * scale)
                previous = name
            networks.append(net)
    return networks


def build_level3_boards(n_boards=100):
    """Synthetic multi-operator stress case: boards cycling through
    every ATR width x depth.

    Each board spans its case's depth and width less card margins, so
    the ten width x depth pairs give ten distinct board operators and
    the factor cache must hold and alternate between all of them.  A
    real campaign sends less variety: ``Candidate.build`` sizes boards
    depth x height, so it meets one level-3 operator per case depth.
    The power and resistor count vary from board to board; like the
    level-2 boundary temperature they reach only the right-hand side.
    """
    cases = [AtrCase(size, long_case) for size in ATR_WIDTHS
             for long_case in (False, True)]
    boards = []
    for k in range(n_boards):
        case = cases[k % len(cases)]
        boards.append(dummy_resistive_pcb(
            case.depth - 0.04, case.width - 0.02, 5.0 + 0.35 * k,
            n_resistors=3 + k % 4))
    return boards


def _measure(kernel, call, rounds):
    """Median wall time [ms] of ``call`` plus one instrumented pass.

    The instrumented pass runs first on a reset registry so the counter
    record reflects exactly one call against a cold compile; the timing
    rounds then run warm (compiled structure and LU cache populated),
    which is the steady-state the benchmarks guard.
    """
    call()  # warm: compile + factorize
    perf.reset(kernel)
    call()
    counters = perf.stats(kernel)
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return {
        "median_ms": round(statistics.median(samples) * 1e3, 4),
        "counters": {name: getattr(counters, name)
                     for name in EXACT_COUNTERS},
    }


def run_benches(rounds=25):
    """Measure every pinned scenario; returns the baseline document."""
    benches = {}

    linear = build_linear_network()
    benches["network_solve_linear"] = _measure(
        "network.steady", linear.solve, rounds)

    nonlinear = build_nonlinear_network()
    benches["network_solve_nonlinear"] = _measure(
        "network.steady", nonlinear.solve, rounds)

    chain = build_radiation_chain()
    benches["nonlinear_fixed_point_200"] = _measure(
        "network.steady",
        lambda: chain.solve(max_iterations=500, tolerance=1e-10,
                            relaxation=0.12),
        rounds)

    solver = TransientNetworkSolver(build_transient_chain())
    benches["transient_constant_500_steps"] = _measure(
        "network.transient",
        lambda: solver.integrate(duration=500.0, time_step=1.0),
        rounds)

    def batched_grid():
        outcomes = solve_batched(build_candidate_grid())
        assert all(o.ok for o in outcomes)

    def scalar_grid():
        for net in build_candidate_grid():
            net.solve()

    benches["sweep_batched_grid"] = _measure(
        "network.batched", batched_grid, rounds)
    benches["sweep_scalar_grid"] = _measure(
        "network.steady", scalar_grid, rounds)

    boards = build_level3_boards()

    def level3_board_sweep():
        clear_factor_cache()
        for k, board in enumerate(boards):
            board.solve_detail(15.0, 15.0, 320.0 + 0.2 * k)

    benches["level3_board_sweep"] = _measure(
        "conduction.steady", level3_board_sweep, rounds)

    return {
        "schema": 1,
        "unit": "median wall milliseconds over warm rounds",
        "rounds": rounds,
        "benches": benches,
    }


def write_baseline(path, rounds):
    document = run_benches(rounds)
    tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    print(f"wrote {path} ({len(document['benches'])} benches)")
    return 0


def _candidates_per_factorization(counters):
    """Derived batch-amortization figure from a counter dict (0 = n/a)."""
    width = counters.get("batch_width", 0)
    factorizations = counters.get("factorizations", 0)
    if not width or not factorizations:
        return 0.0
    return width / factorizations


def compare_baseline(path, rounds, tolerance, report_path=None):
    if not path.exists():
        print(f"ERROR: baseline {path} not found; run "
              "`python benchmarks/bench_baseline.py write` and commit it")
        return 2
    baseline = json.loads(path.read_text())
    current = run_benches(rounds)
    failures = []
    comparison = {"schema": 1, "tolerance": tolerance, "rounds": rounds,
                  "benches": {}}
    for name, pinned in sorted(baseline["benches"].items()):
        measured = current["benches"].get(name)
        if measured is None:
            failures.append(f"{name}: bench disappeared")
            comparison["benches"][name] = {"verdict": "MISSING",
                                           "baseline": pinned}
            continue
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
        counter_names = sorted(set(pinned["counters"])
                               | set(measured["counters"]))
        for counter in counter_names:
            expected = pinned["counters"].get(counter)
            got = measured["counters"].get(counter)
            if got != expected:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: counter {counter} drifted: baseline "
                    f"{expected} -> measured {got} "
                    "(caching discipline broken)")
        base_cpf = _candidates_per_factorization(pinned["counters"])
        got_cpf = _candidates_per_factorization(measured["counters"])
        if base_cpf and got_cpf < base_cpf:
            verdict = "REGRESSION"
            failures.append(
                f"{name}: candidates-per-factorization regressed: "
                f"baseline {base_cpf:.1f} -> measured {got_cpf:.1f}")
        comparison["benches"][name] = {
            "verdict": verdict,
            "baseline_ms": pinned["median_ms"],
            "measured_ms": measured["median_ms"],
            "limit_ms": round(limit, 4),
            "baseline_counters": pinned["counters"],
            "measured_counters": measured["counters"],
            "baseline_candidates_per_factorization": round(base_cpf, 2),
            "measured_candidates_per_factorization": round(got_cpf, 2),
        }
        print(f"{name:<32} {measured['median_ms']:>9.3f} ms "
              f"(baseline {pinned['median_ms']:.3f}, "
              f"limit {limit:.3f})  {verdict}")
    comparison["failures"] = failures
    comparison["ok"] = not failures
    if report_path is not None:
        tmp = report_path.parent / f"{report_path.name}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(comparison, indent=2, sort_keys=True)
                       + "\n")
        os.replace(tmp, report_path)
        print(f"comparison written to {report_path}")
    if failures:
        print("\n" + "\n".join(f"FAIL: {line}" for line in failures))
        return 1
    print("\nall benches within tolerance, counters exact")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("write", "compare"))
    parser.add_argument("--baseline", type=pathlib.Path, default=BASELINE)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed slow-down factor (default 3x)")
    parser.add_argument("--report", type=pathlib.Path, default=None,
                        help="write the comparison document (JSON) here "
                             "(compare mode only)")
    args = parser.parse_args(argv)
    if args.mode == "write":
        return write_baseline(args.baseline, args.rounds)
    return compare_baseline(args.baseline, args.rounds, args.tolerance,
                            args.report)


if __name__ == "__main__":
    sys.exit(main())
