"""Solver-kernel performance benchmarks.

Not a paper figure: these time the numerical kernels that everything
else stands on, with real multi-round statistics (unlike the
reproduction benches, which run once and check shapes).  They guard the
library against performance regressions — level-3 sweeps call these
kernels thousands of times during a design study.
"""

from avipack import perf
from avipack.materials.fluids import saturation_properties
from avipack.mechanical.plate import PlateSpec, plate_modes
from avipack.thermal.conduction import (
    BoundaryCondition,
    CartesianGrid,
    ConductionSolver,
)
from avipack.thermal.transient import TransientNetworkSolver
from avipack.twophase.heatpipe import standard_copper_water_heatpipe
from bench_baseline import (
    build_linear_network,
    build_nonlinear_network,
    build_radiation_chain,
    build_transient_chain,
)


def build_board_solver():
    grid = CartesianGrid((40, 30, 3), (0.2, 0.15, 0.0024),
                         conductivity=18.0)
    grid.kz[:, :, :] = 0.35
    region = grid.region_slices((0.09, 0.11), (0.07, 0.08),
                                (0.0, 0.0024))
    grid.add_power(region, 10.0)
    solver = ConductionSolver(grid)
    solver.set_boundary("z_min",
                        BoundaryCondition("convection", 25.0, 313.15))
    solver.set_boundary("z_max",
                        BoundaryCondition("convection", 25.0, 313.15))
    return solver


def test_perf_fv_board_solve(benchmark):
    """3 600-cell orthotropic board: assemble + direct solve."""
    solver = build_board_solver()
    solution = benchmark(solver.solve_steady)
    assert solution.max_temperature > 313.15


def test_perf_network_solve(benchmark):
    """180-node linear network solve."""
    net = build_linear_network()
    solution = benchmark(net.solve)
    assert solution.residual < 1e-6


def test_perf_nonlinear_network(benchmark):
    """Nonlinear (radiation-like) network fixed point."""
    net = build_nonlinear_network()
    solution = benchmark(net.solve)
    assert solution.residual < 1e-4


def test_perf_nonlinear_fixed_point_200(benchmark):
    """~200-iteration nonlinear fixed point: the per-iteration path.

    Every iteration must re-assemble (callable conductances) but never
    rebuild sparse structure; counters prove the discipline.
    """
    net = build_radiation_chain()
    solve = lambda: net.solve(max_iterations=500, tolerance=1e-10,  # noqa: E731
                              relaxation=0.12)
    perf.reset("network.steady")
    solution = solve()
    stats = perf.stats("network.steady")
    assert solution.iterations >= 150
    assert stats.assemblies == solution.iterations >= 1
    assert stats.factorizations == solution.iterations
    solution = benchmark(solve)
    assert solution.residual < 1e-8


def test_perf_transient_constant_500_steps(benchmark):
    """500-step constant-conductance transient: one LU for the run.

    The backward-Euler operator never changes, so the whole history —
    including every benchmark round after the first — must be served by
    a single factorization.
    """
    net = build_transient_chain()
    solver = TransientNetworkSolver(net)
    perf.reset("network.transient")
    result = solver.integrate(duration=500.0, time_step=1.0)
    stats = perf.stats("network.transient")
    assert len(result.times) == 501
    assert stats.assemblies >= 1
    assert stats.factorizations == 1
    assert stats.factorization_reuses == 499
    result = benchmark(solver.integrate, 500.0, 1.0)
    assert result.final("m29") > 300.0
    assert perf.stats("network.transient").factorizations == 1


def test_perf_plate_modes(benchmark):
    """Plate modal extraction (the mechanical branch inner loop)."""
    plate = PlateSpec(0.2, 0.15, 1.6e-3, 22e9, 0.28, 1850.0,
                      component_mass=0.2)
    modes = benchmark(plate_modes, plate, 6)
    assert len(modes) == 6


def test_perf_saturation_properties(benchmark):
    """Working-fluid property evaluation (called inside every two-phase
    iteration)."""
    state = benchmark(saturation_properties, "ammonia", 320.0)
    assert state.pressure > 0.0


def test_perf_heatpipe_limits(benchmark):
    """Full five-limit heat-pipe evaluation."""
    pipe = standard_copper_water_heatpipe()
    limits = benchmark(pipe.operating_limits, 333.15)
    assert len(limits) == 5
