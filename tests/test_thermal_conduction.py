"""Tests for the finite-volume conduction solver against analytic cases."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from avipack import perf
from avipack.errors import InputError
from avipack.packaging.pcb import (
    Pcb,
    dummy_resistive_pcb,
    optimize_copper_coverage,
)
from avipack.thermal import conduction
from avipack.thermal.conduction import (
    FACES,
    BoundaryCondition,
    CartesianGrid,
    ConductionSolver,
    clear_factor_cache,
)


def reference_steady(solver):
    """The uncached steady path: assemble the full CSR system, spsolve.

    Assembly as the solver did it before operator factorizations were
    shared; the cached path must reproduce it bit for bit.
    """
    grid = solver.grid
    nx, ny, nz = grid.shape
    dx, dy, dz = grid.spacing
    n = grid.n_cells
    volume = grid.cell_volume
    index = np.arange(n).reshape(nx, ny, nz)
    rows_list, cols_list, vals_list = [], [], []
    rhs = (grid.source * volume).ravel().astype(float)
    k_fields = {0: grid.kx, 1: grid.ky, 2: grid.kz}
    spacings = {0: dx, 1: dy, 2: dz}
    face_areas = {0: dy * dz, 1: dx * dz, 2: dx * dy}

    def scatter(rows, cols, vals):
        rows_list.append(rows.ravel())
        cols_list.append(cols.ravel())
        vals_list.append(vals.ravel())

    for axis in range(3):
        if grid.shape[axis] < 2:
            continue
        k_field = k_fields[axis]
        d = spacings[axis]
        area = face_areas[axis]
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        k1 = k_field[tuple(lo)]
        k2 = k_field[tuple(hi)]
        g = (2.0 * k1 * k2 / (k1 + k2)) * area / d
        a = index[tuple(lo)]
        b = index[tuple(hi)]
        scatter(a, a, g)
        scatter(b, b, g)
        scatter(a, b, -g)
        scatter(b, a, -g)

    for face in FACES:
        bc = solver.boundaries[face]
        if bc.kind == "adiabatic":
            continue
        axis = {"x": 0, "y": 1, "z": 2}[face[0]]
        layer = 0 if face.endswith("min") else grid.shape[axis] - 1
        d = spacings[axis]
        area = face_areas[axis]
        plane = [slice(None)] * 3
        plane[axis] = layer
        cells = index[tuple(plane)].ravel()
        if bc.kind == "flux":
            np.add.at(rhs, cells, bc.value * area)
            continue
        k_plane = k_fields[axis][tuple(plane)].ravel()
        g_half = k_plane * area / (d / 2.0)
        if bc.kind == "temperature":
            g = g_half
            np.add.at(rhs, cells, g * bc.value)
        else:
            g_film = bc.value * area
            g = g_half * g_film / (g_half + g_film)
            np.add.at(rhs, cells, g * bc.ambient)
        scatter(cells, cells, g)

    matrix = coo_matrix(
        (np.concatenate(vals_list),
         (np.concatenate(rows_list), np.concatenate(cols_list))),
        shape=(n, n)).tocsr()
    return np.asarray(spsolve(matrix, rhs)).reshape(grid.shape)


class TestGrid:
    def test_spacing(self):
        grid = CartesianGrid((10, 5, 2), (0.1, 0.05, 0.002))
        assert grid.spacing == pytest.approx((0.01, 0.01, 0.001))

    def test_cell_volume(self):
        grid = CartesianGrid((10, 5, 2), (0.1, 0.05, 0.002))
        assert grid.cell_volume == pytest.approx(0.01 * 0.01 * 0.001)

    def test_total_power_matches_added(self):
        grid = CartesianGrid((10, 10, 1), (0.1, 0.1, 0.001))
        region = grid.region_slices((0.0, 0.05), (0.0, 0.1), (0.0, 0.001))
        grid.add_power(region, 7.5)
        assert grid.total_power() == pytest.approx(7.5)

    def test_region_outside_rejected(self):
        grid = CartesianGrid((10, 10, 1), (0.1, 0.1, 0.001))
        with pytest.raises(InputError):
            grid.region_slices((0.2, 0.3), (0.0, 0.1), (0.0, 0.001))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), length=st.floats(1e-3, 1.0),
           bounds=st.lists(st.one_of(st.floats(-0.2, 1.2),
                                     st.sampled_from((float("nan"),
                                                      float("inf")))),
                           min_size=2, max_size=2),
           on_centre=st.sampled_from((None, 0, 1)), cell=st.integers(0, 39))
    def test_region_holds_exactly_the_centres_inside(self, n, length,
                                                     bounds, on_centre,
                                                     cell):
        grid = CartesianGrid((n, 1, 1), (length, 1.0, 1.0))
        centers = grid.cell_centers(0)
        if on_centre is not None:  # a bound exactly on a cell centre
            bounds[on_centre] = float(centers[cell % n])
        lo, hi = bounds
        inside = np.where((centers >= lo) & (centers <= hi))[0]
        if lo > hi or inside.size == 0:
            with pytest.raises(InputError):
                grid.region_slices((lo, hi), (0.0, 1.0), (0.0, 1.0))
            return
        region = grid.region_slices((lo, hi), (0.0, 1.0), (0.0, 1.0))
        assert region[0] == slice(int(inside[0]), int(inside[-1]) + 1)
        assert region[1:] == (slice(0, 1), slice(0, 1))

    def test_invalid_shape(self):
        with pytest.raises(InputError):
            CartesianGrid((0, 1, 1), (1.0, 1.0, 1.0))

    def test_invalid_material(self):
        grid = CartesianGrid((4, 4, 1), (0.1, 0.1, 0.001))
        region = grid.region_slices((0.0, 0.1), (0.0, 0.1), (0.0, 0.001))
        with pytest.raises(InputError):
            grid.set_material(region, conductivity=-5.0)


class TestSetMaterial:
    def grid_and_region(self):
        grid = CartesianGrid((4, 4, 2), (0.1, 0.1, 0.002),
                             conductivity=10.0)
        region = grid.region_slices((0.0, 0.1), (0.0, 0.1), (0.0, 0.002))
        return grid, region

    def test_explicit_zero_conductivity_z_rejected(self):
        # Regression: 0.0 used to be truthiness-tested and silently
        # treated as "use the isotropic value".
        grid, region = self.grid_and_region()
        with pytest.raises(InputError, match="conductivity_z"):
            grid.set_material(region, conductivity=5.0, conductivity_z=0.0)

    def test_rejected_call_leaves_grid_unchanged(self):
        # Regression: kz used to be written before conductivity_z was
        # validated, leaving the grid partially mutated.
        grid, region = self.grid_and_region()
        kx0, ky0, kz0 = grid.kx.copy(), grid.ky.copy(), grid.kz.copy()
        with pytest.raises(InputError):
            grid.set_material(region, conductivity=5.0,
                              conductivity_z=-1.0)
        assert np.array_equal(grid.kx, kx0)
        assert np.array_equal(grid.ky, ky0)
        assert np.array_equal(grid.kz, kz0)

    def test_orthotropic_assignment(self):
        grid, region = self.grid_and_region()
        grid.set_material(region, conductivity=18.0, conductivity_z=0.35)
        assert np.all(grid.kx[region] == 18.0)
        assert np.all(grid.ky[region] == 18.0)
        assert np.all(grid.kz[region] == 0.35)

    def test_isotropic_when_z_omitted(self):
        grid, region = self.grid_and_region()
        grid.set_material(region, conductivity=7.0)
        assert np.all(grid.kz[region] == 7.0)


class TestSteady1D:
    def test_slab_with_fixed_faces(self):
        # 1-D slab, fixed 400 K / 300 K: linear profile, q = k dT/L.
        grid = CartesianGrid((50, 1, 1), (0.1, 0.01, 0.01),
                             conductivity=10.0)
        solver = ConductionSolver(grid, {
            "x_min": BoundaryCondition("temperature", 400.0),
            "x_max": BoundaryCondition("temperature", 300.0),
        })
        sol = solver.solve_steady()
        profile = sol.temperatures[:, 0, 0]
        x = grid.cell_centers(0)
        expected = 400.0 - 100.0 * x / 0.1
        assert np.allclose(profile, expected, atol=1e-6)

    def test_flux_boundary_energy_balance(self):
        # Imposed flux on one face, convection on the other.
        grid = CartesianGrid((20, 1, 1), (0.02, 0.01, 0.01),
                             conductivity=100.0)
        solver = ConductionSolver(grid, {
            "x_min": BoundaryCondition("flux", 1.0e4),
            "x_max": BoundaryCondition("convection", 500.0, ambient=300.0),
        })
        sol = solver.solve_steady()
        # Surface cell temperature must satisfy q = h (T_s - T_inf) with
        # the half-cell correction: check total rise magnitude.
        t_cold_face = sol.temperatures[-1, 0, 0]
        assert t_cold_face == pytest.approx(300.0 + 1.0e4 / 500.0, rel=0.02)

    def test_uniform_source_adiabatic_sides(self):
        # Uniform source, one convective face: T rises towards closed end.
        grid = CartesianGrid((30, 1, 1), (0.03, 0.01, 0.01),
                             conductivity=50.0)
        region = grid.region_slices((0.0, 0.03), (0.0, 0.01), (0.0, 0.01))
        grid.add_power(region, 5.0)
        solver = ConductionSolver(grid, {
            "x_max": BoundaryCondition("convection", 1000.0, ambient=300.0),
        })
        sol = solver.solve_steady()
        profile = sol.temperatures[:, 0, 0]
        assert profile[0] > profile[-1]
        assert sol.min_temperature > 300.0


class TestSteady2D3D:
    def test_symmetric_hotspot_peak_centred(self):
        grid = CartesianGrid((21, 21, 1), (0.1, 0.1, 0.002),
                             conductivity=20.0)
        region = grid.region_slices((0.045, 0.055), (0.045, 0.055),
                                    (0.0, 0.002))
        grid.add_power(region, 3.0)
        solver = ConductionSolver(grid, {
            "z_min": BoundaryCondition("convection", 100.0, ambient=300.0),
        })
        sol = solver.solve_steady()
        assert sol.hotspot_index()[:2] == (10, 10)

    def test_higher_conductivity_flattens_field(self):
        def peak(k):
            grid = CartesianGrid((15, 15, 1), (0.1, 0.1, 0.002),
                                 conductivity=k)
            region = grid.region_slices((0.045, 0.055), (0.045, 0.055),
                                        (0.0, 0.002))
            grid.add_power(region, 3.0)
            solver = ConductionSolver(grid, {
                "z_min": BoundaryCondition("convection", 100.0,
                                           ambient=300.0),
            })
            sol = solver.solve_steady()
            return sol.max_temperature - sol.min_temperature

        assert peak(100.0) < peak(1.0)

    def test_orthotropic_board_spreads_in_plane(self):
        grid = CartesianGrid((15, 15, 3), (0.1, 0.1, 0.0016),
                             conductivity=18.0)
        grid.kz[:, :, :] = 0.35
        region = grid.region_slices((0.045, 0.055), (0.045, 0.055),
                                    (0.0, 0.0016))
        grid.add_power(region, 2.0)
        solver = ConductionSolver(grid, {
            "z_min": BoundaryCondition("convection", 20.0, ambient=300.0),
            "z_max": BoundaryCondition("convection", 20.0, ambient=300.0),
        })
        sol = solver.solve_steady()
        assert sol.max_temperature > 300.0
        assert sol.hotspot_index()[:2] == (7, 7)

    def test_energy_balance_global(self):
        # Total heat in = convected out: check via mean surface rise.
        grid = CartesianGrid((10, 10, 2), (0.05, 0.05, 0.004),
                             conductivity=150.0)
        region = grid.region_slices((0.0, 0.05), (0.0, 0.05), (0.0, 0.004))
        grid.add_power(region, 10.0)
        h, t_inf = 200.0, 300.0
        solver = ConductionSolver(grid, {
            "z_min": BoundaryCondition("convection", h, ambient=t_inf),
        })
        sol = solver.solve_steady()
        # High conductivity -> nearly isothermal; Q = h A (T - Tinf).
        area = 0.05 * 0.05
        expected = t_inf + 10.0 / (h * area)
        assert sol.mean_temperature() == pytest.approx(expected, rel=0.05)


class TestValidation:
    def test_all_adiabatic_singular(self):
        grid = CartesianGrid((5, 1, 1), (0.01, 0.01, 0.01))
        with pytest.raises(InputError):
            ConductionSolver(grid).solve_steady()

    def test_unknown_face(self):
        grid = CartesianGrid((5, 1, 1), (0.01, 0.01, 0.01))
        solver = ConductionSolver(grid)
        with pytest.raises(InputError):
            solver.set_boundary("top", BoundaryCondition("temperature",
                                                         300.0))

    def test_invalid_bc_kind(self):
        with pytest.raises(InputError):
            BoundaryCondition("dirichlet", 300.0)

    def test_negative_film(self):
        with pytest.raises(InputError):
            BoundaryCondition("convection", -5.0)


positive = st.floats(0.1, 500.0, allow_nan=False, allow_infinity=False)
kelvin = st.floats(200.0, 500.0, allow_nan=False, allow_infinity=False)
boundary = st.one_of(
    st.just(BoundaryCondition("adiabatic")),
    st.builds(BoundaryCondition, st.just("temperature"), kelvin),
    st.builds(BoundaryCondition, st.just("convection"), positive, kelvin),
    st.builds(BoundaryCondition, st.just("flux"),
              st.floats(-1.0e4, 1.0e4, allow_nan=False)),
)


@st.composite
def conduction_problems(draw):
    """A random well-posed problem: shape, orthotropic k fields, sources
    and mixed boundary kinds (at least one temperature or convection)."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    size = tuple(draw(st.floats(1e-3, 0.5)) for _ in range(3))
    grid = CartesianGrid(shape, size)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for field in (grid.kx, grid.ky, grid.kz):
        field[...] = rng.uniform(0.2, 400.0, shape)
    grid.source[...] = rng.uniform(0.0, 1.0e6, shape)
    bcs = {face: draw(boundary) for face in FACES}
    if all(bc.kind in ("adiabatic", "flux") for bc in bcs.values()):
        bcs[draw(st.sampled_from(FACES))] = BoundaryCondition(
            "convection", draw(positive), draw(kelvin))
    return ConductionSolver(grid, bcs)


def steady_counts(solver):
    """(factorizations, assemblies, reuses) one solve_steady records."""
    before = perf.stats("conduction.steady")
    solver.solve_steady()
    after = perf.stats("conduction.steady")
    return (after.factorizations - before.factorizations,
            after.assemblies - before.assemblies,
            after.factorization_reuses - before.factorization_reuses)


def board_solver(power=5.0, ambient=300.0, nx=8):
    grid = CartesianGrid((nx, 6, 2), (0.16, 0.1, 0.0016),
                         conductivity=18.0)
    grid.kz[...] = 0.35
    grid.add_power(grid.region_slices((0.06, 0.1), (0.03, 0.07),
                                      (0.0, 0.0016)), power)
    return ConductionSolver(grid, {
        "z_min": BoundaryCondition("convection", 15.0, ambient),
        "z_max": BoundaryCondition("convection", 15.0, ambient),
        "x_min": BoundaryCondition("temperature", 320.0),
        "y_max": BoundaryCondition("flux", 500.0),
    })


def _set_kind(face, bc):
    return lambda s: s.set_boundary(face, bc)


def _scale_k(field, cell, factor):
    def mutate(s):
        getattr(s.grid, field)[cell] *= factor
    return mutate


def _add_power(s):
    s.grid.add_power(s.grid.region_slices((0.0, 0.02), (0.0, 0.02),
                                          (0.0, 0.0016)), 3.0)


#: Edits that change the operator: the next solve must factorize.
OPERATOR_EDITS = {
    "shape": lambda s: setattr(s, "grid", CartesianGrid(
        (9, 6, 2), (0.16, 0.1, 0.0016), conductivity=18.0)),
    "size": lambda s: setattr(s, "grid", CartesianGrid(
        (8, 6, 2), (0.17, 0.1, 0.0016), conductivity=18.0)),
    "one_kx_cell": _scale_k("kx", (3, 2, 1), 1.5),
    "one_kz_cell": _scale_k("kz", (0, 0, 0), 0.5),
    "film_coefficient": _set_kind(
        "z_min", BoundaryCondition("convection", 16.0, 300.0)),
    "convection_to_temperature": _set_kind(
        "z_max", BoundaryCondition("temperature", 300.0)),
    "temperature_to_convection": _set_kind(
        "x_min", BoundaryCondition("convection", 15.0, 320.0)),
    "adiabatic_to_convection": _set_kind(
        "y_min", BoundaryCondition("convection", 15.0, 300.0)),
}

#: Edits that leave the operator as it was: the next solve reuses.
RHS_EDITS = {
    "sources": _add_power,
    "ambient": _set_kind(
        "z_min", BoundaryCondition("convection", 15.0, 250.0)),
    "fixed_temperature": _set_kind(
        "x_min", BoundaryCondition("temperature", 350.0)),
    "flux_value": _set_kind("y_max", BoundaryCondition("flux", 800.0)),
    "adiabatic_to_flux": _set_kind("y_min", BoundaryCondition("flux", 80.0)),
}


class TestFactorCache:
    @settings(max_examples=60, deadline=None)
    @given(conduction_problems(), st.floats(0.0, 2.0))
    def test_matches_uncached_spsolve_bit_for_bit(self, solver, scale):
        first = solver.solve_steady().temperatures
        assert np.array_equal(first, reference_steady(solver))
        # Same operator, new right-hand side: answered from the cache.
        solver.grid.source *= scale
        assert steady_counts(solver) == (0, 0, 1)
        assert np.array_equal(solver.solve_steady().temperatures,
                              reference_steady(solver))

    @pytest.mark.parametrize("edit", sorted(OPERATOR_EDITS))
    def test_operator_edit_factorizes(self, edit):
        solver = board_solver()
        solver.solve_steady()
        OPERATOR_EDITS[edit](solver)
        assert steady_counts(solver) == (1, 1, 0)
        assert np.array_equal(solver.solve_steady().temperatures,
                              reference_steady(solver))

    @pytest.mark.parametrize("edit", sorted(RHS_EDITS))
    def test_rhs_edit_reuses(self, edit):
        solver = board_solver()
        solver.solve_steady()
        RHS_EDITS[edit](solver)
        assert steady_counts(solver) == (0, 0, 1)
        assert np.array_equal(solver.solve_steady().temperatures,
                              reference_steady(solver))

    def test_copper_bisection_stays_within_bound(self):
        clear_factor_cache()
        board = Pcb(0.16, 0.1, n_copper_layers=8, copper_coverage=0.2)
        board.place(dummy_resistive_pcb(0.16, 0.1, 7.0, 1).components[0])
        before = perf.stats("conduction.steady").factorizations
        optimize_copper_coverage(board, 318.15, 398.15)
        factorized = perf.stats("conduction.steady").factorizations - before
        assert factorized > conduction.FACTOR_CACHE_SIZE
        assert len(conduction._factors) == conduction.FACTOR_CACHE_SIZE

    def test_threads_match_serial_run(self):
        ambients = [280.0 + 5.0 * i for i in range(8)]
        sizes = (8, 9, 10, 11)

        def solve_all(ambient):
            # Each thread meets the four operators in its own order, so
            # first solves of one operator race from several threads.
            turn = int(ambient) % len(sizes)
            order = sizes[turn:] + sizes[:turn]
            return [board_solver(2.0, ambient, nx).solve_steady()
                    .temperatures for nx in order]

        clear_factor_cache()
        serial = [solve_all(a) for a in ambients]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                clear_factor_cache()
                before = perf.stats("conduction.steady").factorizations
                results = [None] * len(ambients)
                barrier = threading.Barrier(len(ambients))

                def work(i):
                    barrier.wait(timeout=30)
                    results[i] = solve_all(ambients[i])

                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(len(ambients))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(
                    np.array_equal(a, b)
                    for got, want in zip(results, serial, strict=True)
                    for a, b in zip(got, want, strict=True))
                factorized = (perf.stats("conduction.steady").factorizations
                              - before)
                assert factorized == len(sizes)
        finally:
            sys.setswitchinterval(interval)

    def test_fork_while_locked_does_not_deadlock(self):
        context = multiprocessing.get_context("fork")
        child = context.Process(target=lambda: board_solver().solve_steady())
        with conduction._factor_lock:
            child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
        assert child.exitcode == 0

    def test_clear_drops_every_factorization(self):
        board_solver().solve_steady()
        clear_factor_cache()
        assert steady_counts(board_solver()) == (1, 1, 0)
