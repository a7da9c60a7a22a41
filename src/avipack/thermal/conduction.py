"""Structured finite-volume heat-conduction solver.

This is the "FloTHERM-like" substrate used at levels 2 and 3 of the design
flow: a Cartesian grid over a board or module with per-cell (possibly
orthotropic) conductivity, volumetric heat sources for dissipating regions
and mixed boundary conditions (fixed temperature, convection film, fixed
flux, adiabatic) on the six faces.

Steady problems assemble the standard 7-point (3-D) finite-volume stencil
with harmonic-mean face conductivities and solve the sparse linear system
directly.  The operator depends only on geometry, conductivities and the
film coefficients, so each process keeps the LU factorization of every
recent distinct operator and answers later solves that change only the
sources or boundary values with a back-substitution.  Transient problems
use unconditionally stable backward-Euler stepping on the same operator.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, identity
from scipy.sparse.linalg import SuperLU, factorized, splu

from .. import perf
from ..errors import InputError
from ..fingerprint import stable_fingerprint

#: The six faces of the domain, by outward axis direction.
FACES = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")

#: Steady operators whose LU factorization a process keeps, least
#: recently used evicted first.  A design campaign has one level-3
#: board operator per board geometry, copper layup and film
#: coefficient; at 34 x 26 cells one factorization holds ~30k entries.
FACTOR_CACHE_SIZE = 16

_factor_lock = threading.Lock()
_factors: "OrderedDict[str, SuperLU]" = OrderedDict()


def clear_factor_cache() -> None:
    """Drop every cached steady-operator factorization."""
    with _factor_lock:
        _factors.clear()


def _renew_lock_after_fork() -> None:
    # A pool forked while another thread held the lock (the service runs
    # sweeps in executor threads) would otherwise start with it held
    # forever.  The cached factorizations stay valid in the child.
    global _factor_lock
    _factor_lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_lock_after_fork)


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition on one domain face.

    ``kind`` is one of

    * ``"adiabatic"`` — zero flux (the default on every face);
    * ``"temperature"`` — fixed surface temperature ``value`` [K];
    * ``"convection"`` — film coefficient ``value`` [W/(m²·K)] to an
      ambient at ``ambient`` [K];
    * ``"flux"`` — imposed inward heat flux ``value`` [W/m²].
    """

    kind: str
    value: float = 0.0
    ambient: float = 293.15

    def __post_init__(self) -> None:
        if self.kind not in ("adiabatic", "temperature", "convection", "flux"):
            raise InputError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "temperature" and self.value <= 0.0:
            raise InputError("fixed temperature must be positive kelvin")
        if self.kind == "convection":
            if self.value <= 0.0:
                raise InputError("film coefficient must be positive")
            if self.ambient <= 0.0:
                raise InputError("ambient temperature must be positive")


ADIABATIC = BoundaryCondition("adiabatic")


class CartesianGrid:
    """Uniform Cartesian grid with per-cell material fields.

    Parameters
    ----------
    shape:
        Cell counts ``(nx, ny, nz)``; use 1 along collapsed axes for 1-D
        or 2-D problems.
    size:
        Physical extents ``(lx, ly, lz)`` in metres.
    conductivity:
        Default isotropic conductivity [W/(m·K)] filled into all cells.
    density, specific_heat:
        Defaults for transient problems.
    """

    def __init__(self, shape: Tuple[int, int, int],
                 size: Tuple[float, float, float],
                 conductivity: float = 1.0,
                 density: float = 1000.0,
                 specific_heat: float = 1000.0) -> None:
        if len(shape) != 3 or len(size) != 3:
            raise InputError("shape and size must be 3-tuples")
        if any(int(n) < 1 for n in shape):
            raise InputError("cell counts must be >= 1")
        if any(s <= 0.0 for s in size):
            raise InputError("extents must be positive")
        if conductivity <= 0.0 or density <= 0.0 or specific_heat <= 0.0:
            raise InputError("material defaults must be positive")
        self.shape = tuple(int(n) for n in shape)
        self.size = tuple(float(s) for s in size)
        self.spacing = tuple(
            s / n for s, n in zip(self.size, self.shape, strict=True))
        # Cell centres per axis, kept as floats for region_slices.
        self._centers = tuple([(i + 0.5) * d for i in range(n)]
                              for n, d in zip(self.shape, self.spacing))
        full = self.shape
        self.kx = np.full(full, float(conductivity))
        self.ky = np.full(full, float(conductivity))
        self.kz = np.full(full, float(conductivity))
        self.source = np.zeros(full)  # volumetric source [W/m³]
        self.rho_cp = np.full(full, float(density) * float(specific_heat))

    # -- geometry helpers ----------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def cell_volume(self) -> float:
        """Volume of one cell [m³]."""
        dx, dy, dz = self.spacing
        return dx * dy * dz

    def cell_centers(self, axis: int) -> np.ndarray:
        """Cell-centre coordinates along ``axis`` (0=x, 1=y, 2=z) [m]."""
        if axis not in (0, 1, 2):
            raise InputError("axis must be 0, 1 or 2")
        return np.array(self._centers[axis])

    def region_slices(self, x_range: Tuple[float, float],
                      y_range: Tuple[float, float],
                      z_range: Tuple[float, float]) -> Tuple[slice, slice, slice]:
        """Cell-index slices covering a physical box (inclusive of partially
        covered cells whose centres fall inside the box)."""
        slices = []
        for axis, (lo, hi) in enumerate((x_range, y_range, z_range)):
            if lo > hi:
                raise InputError("range lower bound exceeds upper bound")
            # Centres increase along the axis, so the ones inside the
            # range are a run found by bisection; a NaN bound holds none.
            centers = self._centers[axis]
            start = bisect.bisect_left(centers, lo)
            stop = bisect.bisect_right(centers, hi)
            if start >= stop or lo != lo or hi != hi:
                raise InputError(
                    f"region does not cover any cell centre on axis {axis}")
            slices.append(slice(start, stop))
        return tuple(slices)

    # -- field editing ---------------------------------------------------------

    def set_material(self, region: Tuple[slice, slice, slice],
                     conductivity: float,
                     density: Optional[float] = None,
                     specific_heat: Optional[float] = None,
                     conductivity_z: Optional[float] = None) -> None:
        """Assign material properties in a region of cells.

        ``conductivity_z`` allows orthotropic boards (in-plane value in
        ``conductivity``, through-thickness value in ``conductivity_z``).

        Every argument is validated *before* any field is written, so a
        rejected call never leaves the grid partially mutated; an
        explicit ``conductivity_z`` is honoured even when it equals a
        falsy-looking value (only ``None`` means "use the isotropic
        value", and non-positive values are rejected).
        """
        if conductivity <= 0.0:
            raise InputError("conductivity must be positive")
        if conductivity_z is not None and conductivity_z <= 0.0:
            raise InputError("conductivity_z must be positive")
        rho_cp = None
        if density is not None or specific_heat is not None:
            rho = density if density is not None else 1000.0
            cp = specific_heat if specific_heat is not None else 1000.0
            if rho <= 0.0 or cp <= 0.0:
                raise InputError("density and cp must be positive")
            rho_cp = rho * cp
        self.kx[region] = conductivity
        self.ky[region] = conductivity
        self.kz[region] = (conductivity_z if conductivity_z is not None
                           else conductivity)
        if rho_cp is not None:
            self.rho_cp[region] = rho_cp

    def add_power(self, region: Tuple[slice, slice, slice],
                  power: float) -> None:
        """Distribute ``power`` [W] uniformly over the region's cells."""
        if power < 0.0:
            raise InputError("power must be non-negative")
        count = math.prod(s.stop - s.start for s in region)
        if count == 0:
            raise InputError("region covers no cells")
        self.source[region] += power / (count * self.cell_volume)

    def total_power(self) -> float:
        """Total volumetric source power over the grid [W]."""
        return float(self.source.sum() * self.cell_volume)


@dataclass(frozen=True)
class ConductionSolution:
    """Steady conduction result.

    ``temperatures`` has the grid's cell shape.  Convenience accessors
    return hot-spot data used by the design flow.
    """

    grid: CartesianGrid
    temperatures: np.ndarray

    @property
    def max_temperature(self) -> float:
        """Peak cell temperature [K]."""
        return float(self.temperatures.max())

    @property
    def min_temperature(self) -> float:
        """Lowest cell temperature [K]."""
        return float(self.temperatures.min())

    def hotspot_index(self) -> Tuple[int, int, int]:
        """Cell index of the peak temperature."""
        flat = int(np.argmax(self.temperatures))
        return tuple(int(i) for i in np.unravel_index(flat,
                                                      self.temperatures.shape))

    def mean_temperature(self) -> float:
        """Volume-average temperature [K]."""
        return float(self.temperatures.mean())


def _face_areas(grid: CartesianGrid) -> Tuple[float, float, float]:
    """Cell-face areas normal to x, y and z [m²]."""
    dx, dy, dz = grid.spacing
    return dy * dz, dx * dz, dx * dy


class ConductionSolver:
    """Finite-volume solver bound to a grid and boundary conditions."""

    def __init__(self, grid: CartesianGrid,
                 boundaries: Optional[Dict[str, BoundaryCondition]] = None
                 ) -> None:
        self.grid = grid
        self.boundaries: Dict[str, BoundaryCondition] = {
            face: ADIABATIC for face in FACES}
        for face, bc in (boundaries or {}).items():
            self.set_boundary(face, bc)

    def set_boundary(self, face: str, condition: BoundaryCondition) -> None:
        """Assign ``condition`` to a face (one of :data:`FACES`)."""
        if face not in FACES:
            raise InputError(f"unknown face {face!r}; expected one of {FACES}")
        self.boundaries[face] = condition

    # -- assembly ---------------------------------------------------------------

    def _boundary_faces(self):
        """Yield ``(bc, cells, area, g)`` for every non-adiabatic face.

        ``cells`` are the flat indices of the face's cell plane and ``g``
        the cell-centre-to-surroundings conductance of a temperature or
        convection face (``None`` for a flux face).  Faces come in
        :data:`FACES` order, which fixes the summation order of both the
        operator and the right-hand side.
        """
        grid = self.grid
        index = np.arange(grid.n_cells).reshape(grid.shape)
        k_fields = (grid.kx, grid.ky, grid.kz)
        for face in FACES:
            bc = self.boundaries[face]
            if bc.kind == "adiabatic":
                continue
            axis = {"x": 0, "y": 1, "z": 2}[face[0]]
            layer = 0 if face.endswith("min") else grid.shape[axis] - 1
            d = grid.spacing[axis]
            area = _face_areas(grid)[axis]
            plane = [slice(None)] * 3
            plane[axis] = layer
            cells = index[tuple(plane)].ravel()
            if bc.kind == "flux":
                yield bc, cells, area, None
                continue
            k_plane = k_fields[axis][tuple(plane)].ravel()
            g_half = k_plane * area / (d / 2.0)
            if bc.kind == "temperature":
                yield bc, cells, area, g_half
            else:  # convection
                g_film = bc.value * area
                yield bc, cells, area, g_half * g_film / (g_half + g_film)

    def _operator(self) -> csr_matrix:
        """Assemble the steady operator A of A·T = b (an M-matrix).

        Reads only the inputs :meth:`operator_key` covers: grid shape
        and spacing, the ``kx/ky/kz`` fields, which faces are
        temperature or convection, and the film coefficients.  Fully
        vectorised: interior-face conductances are computed as array
        slices per axis and scattered into COO triplets; boundary faces
        likewise operate on whole index planes.
        """
        grid = self.grid
        n = grid.n_cells
        index = np.arange(n).reshape(grid.shape)
        k_fields = (grid.kx, grid.ky, grid.kz)
        rows_list = []
        cols_list = []
        vals_list = []

        def scatter(rows, cols, vals):
            rows_list.append(rows.ravel())
            cols_list.append(cols.ravel())
            vals_list.append(vals.ravel())

        # Interior faces: harmonic-mean conductance between neighbours.
        for axis in range(3):
            if grid.shape[axis] < 2:
                continue
            k_field = k_fields[axis]
            d = grid.spacing[axis]
            area = _face_areas(grid)[axis]
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

        for _, cells, _, g in self._boundary_faces():
            if g is not None:
                scatter(cells, cells, g)

        return coo_matrix(
            (np.concatenate(vals_list),
             (np.concatenate(rows_list), np.concatenate(cols_list))),
            shape=(n, n)).tocsr()

    def _rhs(self) -> np.ndarray:
        """Assemble the right-hand side b of A·T = b.

        Reads the sources, convection ambients, fixed temperatures and
        imposed fluxes — the inputs :meth:`_operator` does not.
        """
        rhs = (self.grid.source * self.grid.cell_volume).ravel().astype(float)
        for bc, cells, area, g in self._boundary_faces():
            if g is None:
                np.add.at(rhs, cells, bc.value * area)
            elif bc.kind == "temperature":
                np.add.at(rhs, cells, g * bc.value)
            else:
                np.add.at(rhs, cells, g * bc.ambient)
        return rhs

    def operator_key(self) -> str:
        """Fingerprint of exactly the inputs :meth:`_operator` reads.

        The default key of the per-process factor cache.  It hashes the
        ``kx/ky/kz`` fields; a caller that can name its operator from
        fewer inputs (a board's detail model, whose conductivity is
        uniform per axis) passes its own key to :meth:`solve_steady`.
        """
        grid = self.grid
        faces = tuple(
            (face, bc.kind, bc.value if bc.kind == "convection" else None)
            for face, bc in self.boundaries.items()
            if bc.kind in ("temperature", "convection"))
        return stable_fingerprint("conduction_operator", grid.shape,
                                  grid.spacing, grid.kx, grid.ky, grid.kz,
                                  faces)

    def _check_well_posed(self) -> None:
        if all(self.boundaries[f].kind in ("adiabatic", "flux")
               for f in FACES):
            raise InputError(
                "problem is singular: at least one face needs a temperature "
                "or convection boundary condition")

    # -- solving ------------------------------------------------------------------

    def solve_steady(self, operator_key: Optional[str] = None
                     ) -> ConductionSolution:
        """Solve the steady conduction problem.

        The operator's LU factorization is kept per process under a
        digest of exactly the operator's inputs (geometry, ``kx/ky/kz``,
        which faces are temperature or convection, film coefficients),
        bounded by :data:`FACTOR_CACHE_SIZE`.  Solves that differ only
        in sources, ambients, fixed temperatures or fluxes — every
        level-3 board of one geometry and layup in a sweep — factorize
        once and back-substitute afterwards, bit-identical to a fresh
        direct solve.

        ``operator_key`` replaces :meth:`operator_key` as the
        factor-cache key; it must change whenever the operator does, and
        is trusted, not checked.
        """
        self._check_well_posed()
        start = time.perf_counter()
        key = (operator_key if operator_key is not None
               else self.operator_key())
        rhs = self._rhs()
        # One lock over lookup, factorization, insert, eviction and the
        # back-substitution: concurrent sweeps in executor threads share
        # the cache, and a SuperLU object is not safe to use from two
        # threads at once.
        with _factor_lock:
            lu = _factors.get(key)
            if lu is None:
                # splu of the CSR arrays read as CSC (Aᵀ) plus a
                # transposed solve is exactly what spsolve does with a
                # CSR operator, so fields match the uncached path bit
                # for bit.
                lu = splu(self._operator().T, permc_spec="COLAMD")
                _factors[key] = lu
                if len(_factors) > FACTOR_CACHE_SIZE:
                    _factors.popitem(last=False)
                counts = {"assemblies": 1, "factorizations": 1}
            else:
                _factors.move_to_end(key)
                counts = {"factorization_reuses": 1}
            temps = lu.solve(rhs, trans="T")
        perf.record("conduction.steady", solves=1,
                    wall_s=time.perf_counter() - start, **counts)
        return ConductionSolution(self.grid,
                                  temps.reshape(self.grid.shape))

    def solve_transient(self, initial_temperature: float, duration: float,
                        time_step: float,
                        max_steps: int = 200_000
                        ) -> "TransientConductionResult":
        """Backward-Euler transient solve from a uniform initial field.

        Returns the sampled temperature history.  Unconditionally stable;
        accuracy is first order in ``time_step``.

        ``max_steps`` guards against a mistyped ``time_step`` turning
        the solve into an unbounded loop (each step stores a full field,
        so runaway step counts also exhaust memory): a request needing
        more steps is rejected eagerly with :class:`InputError` instead
        of hanging the campaign.
        """
        if duration <= 0.0 or time_step <= 0.0:
            raise InputError("duration and time step must be positive")
        if initial_temperature <= 0.0:
            raise InputError("initial temperature must be positive kelvin")
        if max_steps < 1:
            raise InputError("max_steps must be >= 1")
        n_steps = max(1, int(round(duration / time_step)))
        if n_steps > max_steps:
            raise InputError(
                f"transient solve needs {n_steps} steps for duration "
                f"{duration:g} s at time_step {time_step:g} s, exceeding "
                f"max_steps={max_steps}; increase time_step or raise "
                "max_steps explicitly")
        self._check_well_posed()
        start = time.perf_counter()
        matrix = self._operator()
        rhs = self._rhs()
        capacity = (self.grid.rho_cp * self.grid.cell_volume).ravel()
        system = identity(self.grid.n_cells, format="csr").multiply(
            capacity[:, None] / time_step) + matrix
        system = csr_matrix(system)
        # The operator is constant across the whole march (backward
        # Euler with fixed material fields and step size): factorize
        # once and back-substitute every step instead of refactorizing
        # O(n_steps) times inside spsolve.
        solve = factorized(system.tocsc())
        perf.record("conduction.transient", assemblies=1, factorizations=1)
        temps = np.full(self.grid.n_cells, float(initial_temperature))
        times = [0.0]
        history = [temps.reshape(self.grid.shape).copy()]
        for step in range(1, n_steps + 1):
            b = rhs + capacity / time_step * temps
            temps = np.asarray(solve(b))
            times.append(step * time_step)
            history.append(temps.reshape(self.grid.shape).copy())
        perf.record("conduction.transient", solves=1, iterations=n_steps,
                    factorization_reuses=n_steps - 1,
                    wall_s=time.perf_counter() - start)
        return TransientConductionResult(np.asarray(times),
                                         np.asarray(history), self.grid)


@dataclass(frozen=True)
class TransientConductionResult:
    """Sampled transient temperature history.

    ``times`` has shape (n_samples,), ``fields`` has shape
    (n_samples, nx, ny, nz).
    """

    times: np.ndarray
    fields: np.ndarray
    grid: CartesianGrid

    def max_temperature_history(self) -> np.ndarray:
        """Peak temperature at every sample [K]."""
        return self.fields.reshape(self.fields.shape[0], -1).max(axis=1)

    def final_field(self) -> np.ndarray:
        """The last temperature field."""
        return self.fields[-1]

    def time_to_reach(self, temperature: float) -> float:
        """First time the peak temperature reaches ``temperature`` [s].

        Returns ``inf`` if it is never reached within the simulated span.
        """
        peaks = self.max_temperature_history()
        hits = np.where(peaks >= temperature)[0]
        if hits.size == 0:
            return float("inf")
        return float(self.times[hits[0]])
