"""Committed solver-benchmark baseline: write and regression-compare.

``BENCH_solver.json`` at the repository root pins median timings and
factorization-reuse counters for the solver kernels.  CI re-measures
and compares through :mod:`bench_harness`: timings may grow by the
``--tolerance`` factor (default 3x), while the *counters* are compared
exactly — a lost factorization cache is a real regression no matter
how fast the box.

Usage::

    python benchmarks/bench_baseline.py write     # refresh the baseline
    python benchmarks/bench_baseline.py compare   # exit 1 on regression

Run from the repository root (or pass ``--baseline`` explicitly).
"""

from __future__ import annotations

import pathlib
import sys

from avipack import perf
from avipack.core.levels import run_pyramid
from avipack.packaging.formfactors import ATR_WIDTHS, AtrCase
from avipack.packaging.pcb import dummy_resistive_pcb
from avipack.sweep.space import Candidate
from avipack.thermal.batch import solve_batched
from avipack.thermal.conduction import clear_factor_cache
from avipack.thermal.network import ThermalNetwork
from avipack.thermal.transient import TransientNetworkSolver
from bench_harness import Suite, median_ms, timed_samples

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


def build_rack_pyramid(n_modules=6):
    """A series-fed rack whose modules all carry one board, as a sweep
    candidate builds it: each slot solves the same board at its own
    level-2 boundary."""
    rack, _ = Candidate(n_modules=n_modules, series_fraction=1.0).build()
    return rack


def _measure(kernel, call, rounds, named=()):
    """Median wall time [ms] of ``call`` plus one instrumented pass.

    The instrumented pass runs first on a reset registry so the counter
    record reflects exactly one call against a cold compile; the timing
    rounds then run warm (compiled structure and LU cache populated),
    which is the steady-state the benchmarks guard.  ``named`` scalar
    counters (:func:`avipack.perf.counter`) join the kernel's counters
    under their dotted names.
    """
    call()  # warm: compile + factorize
    for name in (kernel, *named):
        perf.reset(name)
    call()
    counters = perf.stats(kernel)
    pinned = {name: getattr(counters, name) for name in EXACT_COUNTERS}
    pinned.update((name, perf.counter(name)) for name in named)
    return {
        "median_ms": median_ms(timed_samples(call, rounds)),
        "counters": pinned,
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

    rack = build_rack_pyramid()

    def level3_rack_pyramid():
        clear_factor_cache()
        run_pyramid(rack)

    benches["level3_rack_pyramid"] = _measure(
        "conduction.steady", level3_rack_pyramid, rounds,
        named=("levels.detail_builds",))

    return {
        "schema": 1,
        "unit": "median wall milliseconds over warm rounds",
        "rounds": rounds,
        "benches": benches,
    }


SUITE = Suite(script="bench_baseline.py",
              title=__doc__.splitlines()[0], baseline=BASELINE,
              run_benches=run_benches, rounds=25, discipline="caching")


if __name__ == "__main__":
    sys.exit(SUITE.main())
