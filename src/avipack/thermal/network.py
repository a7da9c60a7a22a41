"""Thermal resistance network solver.

This is the workhorse behind the paper's three-level simulation pyramid
(Fig. 4, "resistive network model"): equipment, PCB and component models
all reduce to a network of temperature nodes connected by thermal
conductances, with heat sources at dissipating nodes and fixed temperatures
at ambient/sink nodes.

The solver supports

* constant conductances (conduction paths, interface resistances),
* **temperature-dependent** conductances supplied as callables
  ``g(t_hot, t_cold) -> W/K`` (natural convection, radiation), resolved by
  damped fixed-point iteration,
* exact linear solves via SciPy sparse LU when the network is linear.

Energy conservation at every node is the defining equation:

.. math:: \\sum_j G_{ij} (T_j - T_i) + Q_i = 0

for every free node *i*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import factorized, spsolve

try:  # Direct SuperLU entry point, bypassing spsolve's per-call checks.
    from scipy.sparse.linalg._dsolve import _superlu
except ImportError:  # pragma: no cover - depends on SciPy layout
    _superlu = None

#: spsolve's default options (natural COLAMD column permutation).
_GSSV_OPTIONS = {"ColPerm": None}

from .. import perf
from ..errors import ConvergenceError, InputError

#: Conductance type: constant [W/K] or callable ``g(t_a, t_b) -> W/K``.
Conductance = Union[float, Callable[[float, float], float]]


@dataclass
class _Node:
    name: str
    heat_load: float = 0.0
    fixed_temperature: Optional[float] = None
    capacitance: float = 0.0


@dataclass
class _Link:
    node_a: str
    node_b: str
    conductance: Conductance
    label: str = ""


class _CompiledNetwork:
    """A :class:`ThermalNetwork` lowered to integer index arrays.

    Compilation happens once per network *structure*: link endpoints
    become index arrays, the constant-conductance part of the operator
    is assembled once as a reusable CSR via a vectorized COO scatter
    (no ``lil_matrix``, no per-link Python loop), and only callable
    links are re-evaluated per fixed-point iteration or time step.
    Purely linear networks additionally cache an LU factorization
    (:func:`scipy.sparse.linalg.factorized`) so repeated solves — sweep
    candidates, retries, transient steps — refactorize nothing.

    The owning network invalidates its compiled instance on any
    structural mutation (``add_node``/``add_conductance``/
    ``add_heat_load``), so a compiled structure always mirrors the
    current definition.
    """

    def __init__(self, network: "ThermalNetwork") -> None:
        nodes = list(network._nodes.values())
        links = network._links
        self.names: List[str] = [node.name for node in nodes]
        self.index: Dict[str, int] = {name: i
                                      for i, name in enumerate(self.names)}
        n = len(nodes)

        fixed = np.array([node.fixed_temperature is not None
                          for node in nodes], dtype=bool)
        self.fixed_mask = fixed
        self.fixed_values = np.array(
            [node.fixed_temperature if node.fixed_temperature is not None
             else 0.0 for node in nodes], dtype=float)
        self.free = np.flatnonzero(~fixed)
        self.n_free = int(self.free.size)
        #: Global node index -> free-system row, or -1 for fixed nodes.
        self.free_of = np.full(n, -1, dtype=np.intp)
        self.free_of[self.free] = np.arange(self.n_free)
        self.heat_loads = np.array(
            [node.heat_load for node in nodes], dtype=float)[self.free]
        self.capacitances = np.array(
            [node.capacitance for node in nodes], dtype=float)[self.free]

        # -- links lowered to endpoint index arrays ------------------------
        self.ia = np.array([self.index[link.node_a] for link in links],
                           dtype=np.intp)
        self.ib = np.array([self.index[link.node_b] for link in links],
                           dtype=np.intp)
        const_mask = np.array([not callable(link.conductance)
                               for link in links], dtype=bool)
        self.const_sel = np.flatnonzero(const_mask)
        self.var_sel = np.flatnonzero(~const_mask)
        self.g_const = np.array(
            [float(links[int(k)].conductance) for k in self.const_sel],
            dtype=float)
        self.callables = [links[int(k)].conductance for k in self.var_sel]
        self.callable_ends = [(links[int(k)].node_a, links[int(k)].node_b)
                              for k in self.var_sel]
        self.var_ia = self.ia[self.var_sel]
        self.var_ib = self.ib[self.var_sel]
        self.nonlinear = bool(self.var_sel.size)

        # -- scatter patterns (positions fixed, values per evaluation) -----
        (self.c_rows, self.c_cols, self.c_link, self.c_sign,
         self.c_rhs_rows, self.c_rhs_link, self.c_rhs_other) = \
            self._pattern(self.const_sel)
        (self.v_rows, self.v_cols, self.v_link, self.v_sign,
         self.v_rhs_rows, self.v_rhs_link, self.v_rhs_other) = \
            self._pattern(self.var_sel)

        # Merged CSR sparsity template: constant + callable link
        # contributions plus every free diagonal slot (the transient
        # operator adds C/Δt there).  The structure — indices/indptr —
        # is built exactly once; per-evaluation work only rewrites the
        # ``data`` array.
        n_free = self.n_free
        diag = np.arange(n_free, dtype=np.intp)
        all_rows = np.concatenate([self.c_rows, self.v_rows, diag])
        all_cols = np.concatenate([self.c_cols, self.v_cols, diag])
        linear = all_rows * max(n_free, 1) + all_cols
        unique, inverse = np.unique(linear, return_inverse=True)
        # int32 index arrays: exactly what the SuperLU front end takes,
        # so no per-solve astype copies.
        indptr = np.zeros(n_free + 1, dtype=np.intc)
        if n_free:
            np.cumsum(np.bincount(unique // n_free, minlength=n_free),
                      out=indptr[1:])
        indices = (unique % max(n_free, 1)).astype(np.intc)
        n_c = self.c_rows.size
        n_v = self.v_rows.size
        #: Data-slot positions of callable-link and diagonal entries,
        #: where each assembly adds its variable terms.
        self.v_pos = inverse[n_c:n_c + n_v]
        self.diag_pos = inverse[n_c + n_v:]
        #: Constant-conductance part of the operator data, assembled once.
        self.const_data = np.zeros(unique.size)
        np.add.at(self.const_data, inverse[:n_c],
                  self.g_const[self.c_link] * self.c_sign)
        # The operator is symmetric in structure *and* values (a graph
        # Laplacian plus diagonal terms), so the row-major template is
        # simultaneously a valid CSC layout — which is the format the
        # SuperLU front end consumes without a per-iteration conversion.
        self._matrix = csc_matrix(
            (self.const_data.copy(), indices, indptr),
            shape=(n_free, n_free), copy=False)
        #: Cached LU handle for purely linear solves (built lazily).
        self._lu = None

        # Steady-state RHS: during a steady solve the fixed-node
        # temperatures never change, so the constant-link coupling into
        # fixed nodes folds into the heat loads at compile time and the
        # callable part only needs its fixed-side temperatures.
        base = np.zeros(n_free)
        np.add.at(base, self.c_rhs_rows,
                  self.g_const[self.c_rhs_link]
                  * self.fixed_values[self.c_rhs_other])
        self.steady_rhs_base = self.heat_loads + base
        self.v_rhs_fixed = self.fixed_values[self.v_rhs_other]

        #: Free nodes unreachable from any fixed node (set once; the
        #: steady solver rejects them, the transient solver — whose
        #: capacitive diagonal regularizes the system — does not care).
        self.floating = self._floating_nodes(network)

        # Flow keys, reproducing the historical duplicate-label rule.
        keys: List[str] = []
        seen: set = set()
        for i, link in enumerate(links):
            key = link.label or f"{link.node_a}->{link.node_b}"
            if key in seen:
                key = f"{key}#{i}"
            seen.add(key)
            keys.append(key)
        self.flow_keys = tuple(keys)

    @staticmethod
    def _floating_nodes(network: "ThermalNetwork") -> Tuple[str, ...]:
        adjacency: Dict[str, list] = {name: [] for name in network._nodes}
        for link in network._links:
            adjacency[link.node_a].append(link.node_b)
            adjacency[link.node_b].append(link.node_a)
        reached = set()
        frontier = [name for name, node in network._nodes.items()
                    if node.fixed_temperature is not None]
        while frontier:
            name = frontier.pop()
            if name in reached:
                continue
            reached.add(name)
            frontier.extend(adjacency[name])
        return tuple(sorted(set(network._nodes) - reached))

    def _pattern(self, sel: np.ndarray):
        """COO scatter pattern for the link subset ``sel``.

        Returns matrix triplets ``(rows, cols, link_pos, sign)`` — the
        per-evaluation values are ``g[link_pos] * sign`` — plus the
        right-hand-side coupling pattern ``(rhs_rows, rhs_link,
        rhs_other)`` for links joining a free node to a fixed node
        (contribution ``g[rhs_link] * temps[rhs_other]``).
        """
        ja = self.free_of[self.ia[sel]]
        jb = self.free_of[self.ib[sel]]
        pos = np.arange(sel.size)
        a_free = ja >= 0
        b_free = jb >= 0
        both = a_free & b_free
        rows = np.concatenate([ja[a_free], jb[b_free],
                               ja[both], jb[both]])
        cols = np.concatenate([ja[a_free], jb[b_free],
                               jb[both], ja[both]])
        link = np.concatenate([pos[a_free], pos[b_free],
                               pos[both], pos[both]])
        sign = np.concatenate([np.ones(int(a_free.sum())),
                               np.ones(int(b_free.sum())),
                               -np.ones(int(both.sum())),
                               -np.ones(int(both.sum()))])
        a_only = a_free & ~b_free
        b_only = b_free & ~a_free
        rhs_rows = np.concatenate([ja[a_only], jb[b_only]])
        rhs_link = np.concatenate([pos[a_only], pos[b_only]])
        rhs_other = np.concatenate([self.ib[sel][a_only],
                                    self.ia[sel][b_only]])
        return (rows, cols, link, sign, rhs_rows, rhs_link, rhs_other)

    # -- evaluation ----------------------------------------------------------

    def eval_callables(self, temps: np.ndarray, strict: bool) -> np.ndarray:
        """Evaluate every callable conductance at ``temps``.

        ``strict`` reproduces the steady-solver contract (negative
        return values raise :class:`InputError`); the transient stepper
        historically clamps silently instead.
        """
        g = np.array([float(fn(a, b)) for fn, a, b
                      in zip(self.callables, temps[self.var_ia].tolist(),
                             temps[self.var_ib].tolist(), strict=True)])
        if strict and g.size and g.min() < 0.0:
            k = int(np.argmax(g < 0.0))
            node_a, node_b = self.callable_ends[k]
            raise InputError(
                f"conductance callable for {node_a}-{node_b} "
                f"returned negative value {g[k]}")
        return np.maximum(g, 1e-12)

    def operator(self, g_var: Optional[np.ndarray] = None,
                 diagonal: Optional[np.ndarray] = None) -> csc_matrix:
        """The free-node operator matrix for the current evaluation.

        Rewrites the template's ``data`` in place: constant part copied
        from the one-shot assembly, callable-link values scattered on
        top, and an optional extra ``diagonal`` (the transient
        ``C/Δt`` term) added to the pre-located diagonal slots.  No
        sparse structure is rebuilt.  The returned matrix is the shared
        template — callers must copy (e.g. ``tocsc()``) before caching.
        """
        data = self._matrix.data
        data[:] = self.const_data
        if g_var is not None and self.v_pos.size:
            np.add.at(data, self.v_pos, g_var[self.v_link] * self.v_sign)
        if diagonal is not None:
            data[self.diag_pos] += diagonal
        return self._matrix

    def coupling_rhs(self, temps: np.ndarray,
                     g_var: Optional[np.ndarray] = None) -> np.ndarray:
        """Free-node RHS contribution from links into fixed nodes."""
        rhs = np.zeros(self.n_free)
        np.add.at(rhs, self.c_rhs_rows,
                  self.g_const[self.c_rhs_link] * temps[self.c_rhs_other])
        if g_var is not None and self.v_rhs_rows.size:
            np.add.at(rhs, self.v_rhs_rows,
                      g_var[self.v_rhs_link] * temps[self.v_rhs_other])
        return rhs

    def linear_solve(self, temps: np.ndarray) -> Tuple[np.ndarray, bool]:
        """One linearised solve for the free-node temperatures.

        Returns ``(free_temps, reused)`` where ``reused`` is True when
        the answer came from a cached LU factorization (purely linear
        networks after the first solve); otherwise the call assembled
        and factorized once.
        """
        if self.n_free == 0:
            return np.empty(0), False
        if self.nonlinear:
            g_var = self.eval_callables(temps, strict=True)
            matrix = self.operator(g_var)
            rhs = self.steady_rhs_base
            if self.v_rhs_rows.size:
                rhs = rhs + np.bincount(
                    self.v_rhs_rows,
                    weights=g_var[self.v_rhs_link] * self.v_rhs_fixed,
                    minlength=self.n_free)
            if _superlu is not None:
                x, info = _superlu.gssv(
                    self.n_free, len(matrix.data), matrix.data,
                    matrix.indices, matrix.indptr, rhs, 1,
                    options=_GSSV_OPTIONS)
                if info == 0:
                    return x.ravel(), False
            return np.atleast_1d(spsolve(matrix, rhs)), False
        rhs = self.steady_rhs_base
        if self._lu is None:
            self._lu = factorized(self.operator().tocsc())
            return np.atleast_1d(self._lu(rhs)), False
        return np.atleast_1d(self._lu(rhs)), True

    def link_conductances(self, temps: np.ndarray,
                          strict: bool = True) -> np.ndarray:
        """Per-link conductances at ``temps``, in link order."""
        g = np.empty(self.ia.size)
        g[self.const_sel] = self.g_const
        if self.nonlinear:
            g[self.var_sel] = self.eval_callables(temps, strict)
        return g

    def _residual_of(self, q: np.ndarray) -> float:
        if self.n_free == 0:
            return 0.0
        balance = self.heat_loads.copy()
        ja = self.free_of[self.ia]
        jb = self.free_of[self.ib]
        a_free = ja >= 0
        b_free = jb >= 0
        np.subtract.at(balance, ja[a_free], q[a_free])
        np.add.at(balance, jb[b_free], q[b_free])
        return float(np.max(np.abs(balance)))

    def solution_outputs(self, temps: np.ndarray
                         ) -> Tuple[Dict[str, float], float]:
        """Heat flows and residual from one conductance evaluation."""
        q = self.link_conductances(temps) * (temps[self.ia] - temps[self.ib])
        flows = dict(zip(self.flow_keys, map(float, q), strict=True))
        return flows, self._residual_of(q)


@dataclass(frozen=True)
class NetworkSolution:
    """Result of a steady-state network solve.

    Attributes
    ----------
    temperatures:
        Mapping node name → temperature [K].
    heat_flows:
        Mapping link label (or ``"a->b"``) → heat flow [W], positive from
        ``node_a`` to ``node_b``.
    iterations:
        Fixed-point iterations used (1 for a purely linear network).
    residual:
        Final energy-balance residual norm [W].
    """

    temperatures: Dict[str, float]
    heat_flows: Dict[str, float]
    iterations: int
    residual: float

    def temperature(self, node: str) -> float:
        """Temperature of ``node`` [K]."""
        try:
            return self.temperatures[node]
        except KeyError:
            raise InputError(f"no node named {node!r} in solution") from None

    def delta(self, hot: str, cold: str) -> float:
        """Temperature difference ``T(hot) - T(cold)`` [K]."""
        return self.temperature(hot) - self.temperature(cold)


class ThermalNetwork:
    """A lumped thermal network of nodes, links, sources and sinks.

    Examples
    --------
    >>> net = ThermalNetwork()
    >>> net.add_node("chip", heat_load=10.0)
    >>> net.add_node("ambient", fixed_temperature=300.0)
    >>> net.add_resistance("chip", "ambient", resistance=2.0)
    >>> sol = net.solve()
    >>> round(sol.temperature("chip"), 3)
    320.0
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, _Node] = {}
        self._links: List[_Link] = []
        #: Lazily built :class:`_CompiledNetwork`; ``None`` marks stale.
        self._compiled_cache: Optional[_CompiledNetwork] = None

    def _invalidate(self) -> None:
        """Drop the compiled structure after a definition change."""
        self._compiled_cache = None

    def _compiled(self, kernel: str = "network.steady") -> _CompiledNetwork:
        """The compiled structure, (re)built if the definition changed."""
        if self._compiled_cache is None:
            self._compiled_cache = _CompiledNetwork(self)
            perf.record(kernel, compilations=1)
        return self._compiled_cache

    def __getstate__(self):
        # The compiled structure holds SciPy LU objects that neither
        # pickle nor deepcopy; it is derived state, so drop it and let
        # the destination process recompile on first solve.
        state = self.__dict__.copy()
        state["_compiled_cache"] = None
        return state

    # -- construction -------------------------------------------------------

    def add_node(self, name: str, heat_load: float = 0.0,
                 fixed_temperature: Optional[float] = None,
                 capacitance: float = 0.0) -> None:
        """Add a temperature node.

        Parameters
        ----------
        name:
            Unique node identifier.
        heat_load:
            Heat injected at the node [W] (dissipating components).
        fixed_temperature:
            If given, the node is a boundary (sink) held at this value [K].
        capacitance:
            Lumped thermal capacitance [J/K], used only by the transient
            solver in :mod:`avipack.thermal.transient`.
        """
        if not name:
            raise InputError("node name must be non-empty")
        if name in self._nodes:
            raise InputError(f"node {name!r} already exists")
        if fixed_temperature is not None and fixed_temperature <= 0.0:
            raise InputError("fixed temperature must be positive kelvin")
        if capacitance < 0.0:
            raise InputError("capacitance must be non-negative")
        self._nodes[name] = _Node(name, heat_load, fixed_temperature,
                                  capacitance)
        self._invalidate()

    def add_heat_load(self, name: str, heat_load: float) -> None:
        """Add (accumulate) a heat load on an existing node [W]."""
        node = self._require(name)
        if node.fixed_temperature is not None and heat_load != 0.0:
            raise InputError(f"cannot load fixed-temperature node {name!r}")
        node.heat_load += heat_load
        self._invalidate()

    def add_conductance(self, node_a: str, node_b: str,
                        conductance: Conductance, label: str = "") -> None:
        """Connect two nodes with a thermal conductance [W/K].

        ``conductance`` may be a positive constant or a callable
        ``g(t_a, t_b)`` returning W/K for temperature-dependent paths.
        """
        self._require(node_a)
        self._require(node_b)
        if node_a == node_b:
            raise InputError("cannot link a node to itself")
        if not callable(conductance) and conductance <= 0.0:
            raise InputError("conductance must be positive")
        self._links.append(_Link(node_a, node_b, conductance, label))
        self._invalidate()

    def add_resistance(self, node_a: str, node_b: str, resistance: float,
                       label: str = "") -> None:
        """Connect two nodes with a thermal resistance [K/W]."""
        if resistance <= 0.0:
            raise InputError("resistance must be positive")
        self.add_conductance(node_a, node_b, 1.0 / resistance, label)

    # -- introspection -------------------------------------------------------

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All node names in insertion order."""
        return tuple(self._nodes)

    @property
    def link_count(self) -> int:
        """Number of links in the network."""
        return len(self._links)

    def total_heat_load(self) -> float:
        """Sum of heat injected at free nodes [W]."""
        return sum(n.heat_load for n in self._nodes.values()
                   if n.fixed_temperature is None)

    def node_capacitance(self, name: str) -> float:
        """Lumped capacitance of ``name`` [J/K]."""
        return self._require(name).capacitance

    def node_heat_load(self, name: str) -> float:
        """Heat load on ``name`` [W]."""
        return self._require(name).heat_load

    def node_fixed_temperature(self, name: str) -> Optional[float]:
        """Fixed temperature of ``name``, or None for a free node."""
        return self._require(name).fixed_temperature

    def iter_links(self):
        """Yield ``(node_a, node_b, conductance, label)`` tuples."""
        for link in self._links:
            yield link.node_a, link.node_b, link.conductance, link.label

    def _require(self, name: str) -> _Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise InputError(f"unknown node {name!r}") from None

    # -- solving -------------------------------------------------------------

    def solve(self, initial_guess: float = 320.0, max_iterations: int = 200,
              tolerance: float = 1e-8, relaxation: float = 0.7,
              initial_temperatures: Optional[Dict[str, float]] = None
              ) -> NetworkSolution:
        """Solve the steady-state energy balance.

        Linear networks are solved exactly in one sparse factorisation.
        Networks with callable conductances iterate: each pass linearises
        the conductances at the current temperatures, solves, and relaxes
        the update by ``relaxation``.

        Parameters
        ----------
        initial_guess:
            Starting temperature for free nodes [K] when iterating.
        max_iterations:
            Fixed-point iteration budget.
        tolerance:
            Convergence threshold on the max temperature update [K].
        relaxation:
            Under-relaxation factor in (0, 1].
        initial_temperatures:
            Optional per-node warm start (node name → K) overriding
            ``initial_guess``; names absent from the network are
            ignored, so a last iterate from a similar network can seed
            the solve, for example the ``last_iterate`` of a raised
            :class:`ConvergenceError`.

        Raises
        ------
        InputError
            If the network has no fixed-temperature node (the problem is
            singular) or no nodes at all.
        ConvergenceError
            If fixed-point iteration fails to converge.  The exception
            carries the iteration count, the last update norm, and the
            last iterate (usable as ``initial_temperatures``).
        """
        if not self._nodes:
            raise InputError("network has no nodes")
        if all(n.fixed_temperature is None for n in self._nodes.values()):
            raise InputError(
                "network needs at least one fixed-temperature node")
        if not 0.0 < relaxation <= 1.0:
            raise InputError("relaxation must be in (0, 1]")

        start = time.perf_counter()
        comp = self._compiled("network.steady")
        if comp.floating:
            raise InputError(
                "nodes not connected to any fixed-temperature node: "
                + ", ".join(comp.floating))
        free = comp.free

        temps = np.full(len(comp.names), float(initial_guess))
        if initial_temperatures:
            for name, value in initial_temperatures.items():
                if name in comp.index:
                    temps[comp.index[name]] = float(value)
        temps[comp.fixed_mask] = comp.fixed_values[comp.fixed_mask]

        nonlinear = comp.nonlinear
        iterations = 0
        reuses = 0
        for iteration in range(1, max_iterations + 1):
            iterations = iteration
            new_free, reused = comp.linear_solve(temps)
            reuses += reused
            if free.size:
                current = temps[free]
                step = new_free - current
                delta = float(np.abs(step).max())
                temps[free] = (current + relaxation * step if nonlinear
                               else new_free)
            else:
                delta = 0.0
            if delta < tolerance or not nonlinear:
                break
        else:
            perf.record("network.steady", solves=1, iterations=iterations,
                        assemblies=iterations - reuses,
                        factorizations=iterations - reuses,
                        factorization_reuses=reuses,
                        wall_s=time.perf_counter() - start)
            raise ConvergenceError(
                f"network solve did not converge in {max_iterations} "
                f"iterations (last update {delta:.3e} K)",
                iterations=max_iterations, residual=float(delta),
                last_iterate={name: float(temps[comp.index[name]])
                              for name in comp.names})

        solution_temps = {name: float(temps[i])
                          for i, name in enumerate(comp.names)}
        flows, residual = comp.solution_outputs(temps)
        worked = iterations - reuses if free.size else 0
        perf.record("network.steady", solves=1, iterations=iterations,
                    assemblies=worked, factorizations=worked,
                    factorization_reuses=reuses,
                    wall_s=time.perf_counter() - start)
        return NetworkSolution(solution_temps, flows, iterations, residual)


def series_resistance(*resistances: float) -> float:
    """Total resistance of resistances in series [K/W]."""
    if not resistances:
        raise InputError("need at least one resistance")
    if any(r <= 0.0 for r in resistances):
        raise InputError("resistances must be positive")
    return float(sum(resistances))


def parallel_resistance(*resistances: float) -> float:
    """Total resistance of resistances in parallel [K/W]."""
    if not resistances:
        raise InputError("need at least one resistance")
    if any(r <= 0.0 for r in resistances):
        raise InputError("resistances must be positive")
    return 1.0 / sum(1.0 / r for r in resistances)


def slab_resistance(thickness: float, conductivity: float,
                    area: float) -> float:
    """Conduction resistance of a plane slab, R = L / (k·A) [K/W]."""
    if thickness <= 0.0 or conductivity <= 0.0 or area <= 0.0:
        raise InputError("thickness, conductivity and area must be positive")
    return thickness / (conductivity * area)


def spreading_resistance(source_radius: float, plate_radius: float,
                         plate_thickness: float, conductivity: float,
                         h_sink: float = 1e4) -> float:
    """Spreading resistance of a circular source on a finite circular plate.

    Implements the closed-form of Song, Lee & Au (1994) widely used for
    hot-spot analysis: a heat source of radius ``source_radius`` centred on
    a plate of radius ``plate_radius`` and thickness ``plate_thickness``
    with film coefficient ``h_sink`` on the far face.

    Returns only the *spreading* part of the resistance (the 1-D slab and
    film resistances should be added separately).
    """
    if not 0.0 < source_radius <= plate_radius:
        raise InputError("need 0 < source_radius <= plate_radius")
    if plate_thickness <= 0.0 or conductivity <= 0.0 or h_sink <= 0.0:
        raise InputError("thickness, conductivity, h must be positive")
    eps = source_radius / plate_radius
    tau = plate_thickness / plate_radius
    bi = h_sink * plate_radius / conductivity
    lam = np.pi + 1.0 / (np.sqrt(np.pi) * eps)
    phi = (np.tanh(lam * tau) + lam / bi) / (1.0 + lam / bi * np.tanh(lam * tau))
    psi_max = eps * tau / np.sqrt(np.pi) + (1.0 - eps) * phi / np.sqrt(np.pi)
    return float(psi_max / (conductivity * source_radius * np.sqrt(np.pi)))
