"""Printed-circuit-board model: layup, effective properties, detail grids.

The level-2 representation of the design flow: the PCB is a plate with
anisotropic effective conductivity derived from its copper layup, carrying
components either as smeared dissipative surfaces (preliminary design) or
as discrete footprint sources on a finite-volume grid (detailed design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .. import perf
from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..materials.library import pcb_effective_conductivity
from ..mechanical.plate import PlateSpec
from ..thermal.conduction import (
    BoundaryCondition,
    CartesianGrid,
    ConductionSolution,
    ConductionSolver,
)
from .component import Component


@dataclass
class Pcb:
    """A populated PCB.

    Parameters
    ----------
    length, width, thickness:
        Board dimensions [m].
    n_copper_layers:
        Number of copper layers in the stack.
    copper_coverage:
        Mean fractional copper coverage per layer (0–1).
    copper_layer_thickness:
        Per-layer copper thickness [m] (35 µm = 1 oz).
    components:
        Placed components (positions must lie on the board).
    """

    length: float
    width: float
    thickness: float = 1.6e-3
    n_copper_layers: int = 4
    copper_coverage: float = 0.5
    copper_layer_thickness: float = 35e-6
    components: List[Component] = field(default_factory=list)

    def __post_init__(self) -> None:
        if min(self.length, self.width, self.thickness) <= 0.0:
            raise InputError("board dimensions must be positive")
        if self.n_copper_layers < 0:
            raise InputError("copper layer count must be non-negative")
        if not 0.0 <= self.copper_coverage <= 1.0:
            raise InputError("copper coverage must be in [0, 1]")
        for component in self.components:
            self._check_position(component)

    def _check_position(self, component: Component) -> None:
        x, y = component.position
        if not (0.0 <= x <= self.length and 0.0 <= y <= self.width):
            raise InputError(
                f"component {component.name!r} at ({x}, {y}) falls off the "
                f"{self.length} x {self.width} m board")

    # -- population -------------------------------------------------------------

    def place(self, component: Component) -> None:
        """Add a component; validates its position."""
        self._check_position(component)
        self.components.append(component)

    @property
    def total_power(self) -> float:
        """Total dissipation [W]."""
        return sum(component.power for component in self.components)

    @property
    def component_mass(self) -> float:
        """Total mounted-component mass [kg]."""
        return sum(component.package.mass for component in self.components)

    @property
    def area(self) -> float:
        """Board area [m²]."""
        return self.length * self.width

    # -- effective properties ------------------------------------------------------

    def effective_conductivity(self) -> Tuple[float, float]:
        """(in-plane, through-thickness) conductivity [W/(m·K)]."""
        return pcb_effective_conductivity(
            self.copper_coverage, self.n_copper_layers,
            self.copper_layer_thickness, self.thickness)

    def mean_heat_flux(self) -> float:
        """Board-average dissipation flux [W/m²] (the level-2 smear)."""
        return self.total_power / self.area

    # -- model builders ----------------------------------------------------------------

    def as_plate(self, support: Tuple[str, str] = ("SS", "SS"),
                 stiffener_rigidity: float = 0.0) -> PlateSpec:
        """Structural plate idealisation for the mechanical solvers.

        Uses standard FR-4 laminate structural properties; components are
        smeared as added mass.
        """
        return PlateSpec(
            length=self.length,
            width=self.width,
            thickness=self.thickness,
            youngs_modulus=22e9,
            poisson_ratio=0.28,
            density=1850.0,
            support=support,
            component_mass=self.component_mass,
            stiffener_rigidity=stiffener_rigidity,
        )

    def detail_grid(self, nx: int = 34, ny: int = 26,
                    nz: int = 1) -> CartesianGrid:
        """Level-3 finite-volume grid with discrete footprint sources.

        Anisotropic effective conductivity; each component's power is
        injected over its footprint cells.
        """
        if min(nx, ny, nz) < 1:
            raise InputError("grid resolution must be >= 1 in each axis")
        k_inplane, k_through = self.effective_conductivity()
        grid = CartesianGrid((nx, ny, nz),
                             (self.length, self.width, self.thickness),
                             conductivity=k_inplane)
        grid.kz[:, :, :] = k_through
        for component in self.components:
            if component.power == 0.0:
                continue
            half_x = component.package.footprint[0] / 2.0
            half_y = component.package.footprint[1] / 2.0
            x, y = component.position
            region = grid.region_slices(
                (max(x - half_x, 0.0), min(x + half_x, self.length)),
                (max(y - half_y, 0.0), min(y + half_y, self.width)),
                (0.0, self.thickness))
            grid.add_power(region, component.power)
        return grid

    def solve_detail(self, h_top: float, h_bottom: float,
                     ambient: float, nx: int = 34, ny: int = 26
                     ) -> "PcbDetailResult":
        """Solve the level-3 board model with film cooling on both faces.

        Builds the board's :class:`PcbDetailModel` and solves it once;
        callers solving one board at several ambients keep the model.
        Returns board temperature field plus per-component junction
        temperatures (local board temperature + R_jb rise).
        """
        return PcbDetailModel(self, nx, ny).solve(h_top, h_bottom, ambient)


@dataclass(frozen=True)
class PcbDetailResult:
    """Level-3 board solution: field + junction temperatures."""

    board_field: "object"
    junction_temperatures: dict
    max_board_temperature: float

    def hottest_component(self) -> Tuple[str, float]:
        """(name, T_j) of the worst component."""
        if not self.junction_temperatures:
            raise InputError("board has no dissipating components")
        name = max(self.junction_temperatures,
                   key=self.junction_temperatures.get)
        return name, self.junction_temperatures[name]


class PcbDetailModel:
    """A board's level-3 model, built once and solved at many ambients.

    Holds everything a detail solve needs that does not depend on the
    film ambient: the :meth:`Pcb.detail_grid` and the grid cell under
    each component.  Every module of a rack that carries the same board
    solves through one model.  The model is a snapshot: a component
    placed on the board afterwards is not seen.

    The problem is linear (constant conductivities, component-power
    sources, film cooling on both faces to one ambient, adiabatic
    edges), so the field at ambient ``T_a`` is ``T_a + u`` with ``u``
    the rise field at 0 K, and every junction temperature is ``T_a``
    plus a rise that depends only on the film pair.
    :meth:`junction_rises` solves once per film pair and keeps the
    result, so a board met at many slot temperatures costs one solve.
    """

    #: Ambient of the rise solve [K].  Any positive value gives the
    #: same rises (linearity); a small one keeps the subtraction exact
    #: to the rise's own rounding.
    RISE_REFERENCE_AMBIENT = 1.0

    def __init__(self, pcb: Pcb, nx: int = 34, ny: int = 26) -> None:
        self.grid = pcb.detail_grid(nx, ny)
        self._junction_cells = tuple(
            (component,
             min(int(component.position[0] / pcb.length * nx), nx - 1),
             min(int(component.position[1] / pcb.width * ny), ny - 1))
            for component in pcb.components)
        # The grid's conductivity is uniform per axis by construction,
        # so its shape, spacing and the two effective conductivities fix
        # the operator; keying on them replaces hashing kx/ky/kz.
        self._operator_inputs = (
            self.grid.shape, self.grid.spacing,
            tuple(float(k) for k in pcb.effective_conductivity()))
        self._rises: Dict[Tuple[float, float],
                          Tuple[Tuple[str, float], ...]] = {}
        perf.increment("levels.detail_builds")

    def operator_key(self, h_top: float, h_bottom: float) -> str:
        """Factor-cache key of the board operator under a film pair."""
        return stable_fingerprint("pcb_detail_operator",
                                  self._operator_inputs, (h_top, h_bottom))

    def _solve(self, h_top: float, h_bottom: float,
               ambient: float) -> ConductionSolution:
        if h_top <= 0.0 or h_bottom <= 0.0:
            raise InputError("film coefficients must be positive")
        if ambient <= 0.0:
            raise InputError("ambient must be positive kelvin")
        solver = ConductionSolver(self.grid)
        solver.set_boundary("z_max",
                            BoundaryCondition("convection", h_top, ambient))
        solver.set_boundary("z_min",
                            BoundaryCondition("convection", h_bottom,
                                              ambient))
        return solver.solve_steady(
            operator_key=self.operator_key(h_top, h_bottom))

    def solve(self, h_top: float, h_bottom: float,
              ambient: float) -> PcbDetailResult:
        """Solve with film cooling on both faces against ``ambient`` [K]."""
        solution = self._solve(h_top, h_bottom, ambient)
        junctions = {
            component.name: component.junction_temperature_from_board(
                float(solution.temperatures[ix, iy, -1]))
            for component, ix, iy in self._junction_cells}
        return PcbDetailResult(solution.temperatures, junctions,
                               solution.max_temperature)

    def junction_rises(self, h_top: float, h_bottom: float
                       ) -> Tuple[Tuple[str, float], ...]:
        """``(name, rise)`` per component: junction above the ambient [K].

        The rise is the component cell's rise over the film ambient
        plus the package's ``P·R_jb``, so the junction at ambient
        ``T_a`` is ``T_a + rise``.  Solved once per film pair.
        """
        rises = self._rises.get((h_top, h_bottom))
        if rises is None:
            reference = self.RISE_REFERENCE_AMBIENT
            field_ = self._solve(h_top, h_bottom, reference).temperatures
            rises = self._rises[(h_top, h_bottom)] = tuple(
                (component.name,
                 float(field_[ix, iy, -1]) - reference
                 + component.power * component.package.r_junction_board)
                for component, ix, iy in self._junction_cells)
        return rises


def optimize_copper_coverage(board: Pcb, boundary_temperature: float,
                             junction_limit: float,
                             h_film: float = 15.0,
                             nx: int = 20, ny: int = 14) -> float:
    """Smallest copper coverage that keeps every junction legal.

    The level-2 design move the paper names ("optimization of the
    mechanical design (copper layers, specific drains ...)"): bisect the
    per-layer copper coverage between the board's current value and full
    copper until the worst junction of the detailed solve meets
    ``junction_limit``.

    Returns the required coverage fraction.  Raises
    :class:`~avipack.errors.InputError` when even full copper cannot
    close the violation (the advisor should escalate the cooling
    architecture instead).
    """
    if not board.components:
        raise InputError("board has no components to protect")
    if junction_limit <= boundary_temperature:
        raise InputError("junction limit must exceed the boundary")

    def worst_junction(coverage: float) -> float:
        trial = Pcb(length=board.length, width=board.width,
                    thickness=board.thickness,
                    n_copper_layers=board.n_copper_layers,
                    copper_coverage=coverage,
                    copper_layer_thickness=board.copper_layer_thickness,
                    components=list(board.components))
        result = trial.solve_detail(h_film, h_film,
                                    boundary_temperature, nx, ny)
        return max(result.junction_temperatures.values())

    lo = board.copper_coverage
    hi = 1.0
    if worst_junction(lo) <= junction_limit:
        return lo
    if worst_junction(hi) > junction_limit:
        raise InputError(
            "even full copper coverage cannot meet the junction limit; "
            "escalate the cooling architecture")
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if worst_junction(mid) > junction_limit:
            lo = mid
        else:
            hi = mid
    return hi


def dummy_resistive_pcb(length: float, width: float, total_power: float,
                        n_resistors: int = 6) -> Pcb:
    """The COSEE test vehicle: a dummy PCB with resistive heaters.

    "In order to test the thermal performance ... we used dummy PCB with
    resistive components" — power is split equally across ``n_resistors``
    power resistors placed on a regular grid.
    """
    from .component import get_package

    if total_power < 0.0:
        raise InputError("total power must be non-negative")
    if n_resistors < 1:
        raise InputError("need at least one resistor")
    board = Pcb(length=length, width=width)
    columns = max(1, int(round(n_resistors ** 0.5)))
    rows = (n_resistors + columns - 1) // columns
    package = get_package("to_220")
    index = 0
    for row in range(rows):
        for col in range(columns):
            if index >= n_resistors:
                break
            x = (col + 1) / (columns + 1) * length
            y = (row + 1) / (rows + 1) * width
            board.place(Component(
                name=f"R{index + 1}",
                package=package,
                power=total_power / n_resistors,
                position=(x, y)))
            index += 1
    return board
