"""Transient solver for lumped thermal networks.

Integrates ``C_i dT_i/dt = Σ_j G_ij (T_j − T_i) + Q_i`` for the free nodes
of a :class:`~avipack.thermal.network.ThermalNetwork` whose nodes were
given capacitances.  Supports

* time-varying boundary temperatures (ramp profiles for thermal-shock and
  climatic testing per DO-160),
* time-varying heat loads (power duty cycles),
* semi-implicit backward-Euler stepping: conductances are evaluated at the
  start-of-step temperatures, then the linear system is solved implicitly,
  which is unconditionally stable for the stiff networks that arise when
  interface resistances are small.

The stepper runs on the network's compiled structure
(:class:`~avipack.thermal.network._CompiledNetwork`): link endpoints are
integer index arrays, the constant-conductance operator is assembled
once, and — when every conductance is constant — one LU factorization of
``diag(C/Δt) + K`` is reused across *all* steps (and across repeated
:meth:`TransientNetworkSolver.integrate` calls with the same step size),
because schedules only ever move the right-hand side.  Only a callable
conductance forces a per-step refactorization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np
from scipy.sparse.linalg import factorized

from .. import perf
from ..errors import InputError
from .network import ThermalNetwork

#: A time-dependent scalar: constant or callable ``f(time_s) -> value``.
Schedule = Callable[[float], float]


@dataclass(frozen=True)
class TransientNetworkResult:
    """Temperature history of every node.

    ``times`` has shape (n_samples,); ``temperatures[name]`` is the
    matching per-node history array.
    """

    times: np.ndarray
    temperatures: Dict[str, np.ndarray]

    def node(self, name: str) -> np.ndarray:
        """History of node ``name`` [K]."""
        try:
            return self.temperatures[name]
        except KeyError:
            raise InputError(f"no node named {name!r}") from None

    def final(self, name: str) -> float:
        """Final temperature of ``name`` [K]."""
        return float(self.node(name)[-1])

    def peak(self, name: str) -> float:
        """Peak temperature of ``name`` over the run [K]."""
        return float(self.node(name).max())

    def trough(self, name: str) -> float:
        """Minimum temperature of ``name`` over the run [K]."""
        return float(self.node(name).min())

    def max_rate(self, name: str) -> float:
        """Largest |dT/dt| of ``name`` [K/s]."""
        history = self.node(name)
        if history.size < 2:
            return 0.0
        rates = np.diff(history) / np.diff(self.times)
        return float(np.abs(rates).max())


class TransientNetworkSolver:
    """Time integrator bound to a thermal network.

    Parameters
    ----------
    network:
        The network to integrate.  Free nodes must have positive
        capacitances; fixed-temperature nodes may follow schedules.
    boundary_schedules:
        Optional mapping node name → ``f(t) -> K`` overriding the node's
        fixed temperature over time (e.g. a thermal-shock chamber ramp).
    load_schedules:
        Optional mapping node name → ``f(t) -> W`` overriding the node's
        constant heat load over time (power duty cycles).
    """

    def __init__(self, network: ThermalNetwork,
                 boundary_schedules: Optional[Dict[str, Schedule]] = None,
                 load_schedules: Optional[Dict[str, Schedule]] = None) -> None:
        self.network = network
        self.boundary_schedules = dict(boundary_schedules or {})
        self.load_schedules = dict(load_schedules or {})
        names = network.node_names
        for name in self.boundary_schedules:
            if name not in names:
                raise InputError(f"schedule for unknown node {name!r}")
            if network.node_fixed_temperature(name) is None:
                raise InputError(
                    f"boundary schedule on non-boundary node {name!r}")
        for name in self.load_schedules:
            if name not in names:
                raise InputError(f"load schedule for unknown node {name!r}")
        for name in names:
            if (network.node_fixed_temperature(name) is None
                    and network.node_capacitance(name) <= 0.0):
                raise InputError(
                    f"free node {name!r} needs a positive capacitance "
                    "for transient analysis")
        #: Cached backward-Euler LU: ``(compiled_structure, dt, solve)``.
        #: Valid while the network's compiled structure is unchanged and
        #: the step size matches — i.e. for every step of every
        #: constant-conductance integrate() call at that ``dt``.
        self._lu_cache = None

    def __getstate__(self):
        # The LU cache holds SciPy factorization objects that do not
        # pickle; it is derived state, rebuilt on the next step.
        state = self.__dict__.copy()
        state["_lu_cache"] = None
        return state

    def integrate(self, duration: float, time_step: float,
                  initial_temperature: float = 293.15,
                  max_steps: int = 200_000
                  ) -> TransientNetworkResult:
        """Integrate for ``duration`` seconds with fixed ``time_step``.

        Free nodes start at ``initial_temperature``; boundary nodes start
        at their fixed value (or schedule value at t=0).

        ``max_steps`` guards against a mistyped ``time_step`` turning
        the integration into an unbounded loop (each step stores a full
        temperature vector, so runaway step counts also exhaust
        memory): a request needing more steps is rejected eagerly with
        :class:`InputError` instead of hanging the campaign.
        """
        if duration <= 0.0 or time_step <= 0.0:
            raise InputError("duration and time step must be positive")
        if time_step > duration:
            raise InputError("time step exceeds duration")
        if max_steps < 1:
            raise InputError("max_steps must be >= 1")
        n_steps = max(1, int(round(duration / time_step)))
        if n_steps > max_steps:
            raise InputError(
                f"transient solve needs {n_steps} steps for duration "
                f"{duration:g} s at time_step {time_step:g} s, exceeding "
                f"max_steps={max_steps}; increase time_step or raise "
                "max_steps explicitly")
        start = time.perf_counter()
        net = self.network
        comp = net._compiled("network.transient")
        names = comp.names
        index = comp.index

        temps = np.full(len(names), float(initial_temperature))
        for name in names:
            fixed = net.node_fixed_temperature(name)
            if fixed is not None:
                temps[index[name]] = self._boundary_value(name, 0.0, fixed)

        # Scheduled loads resolved to free-system rows once.
        load_rows = {}
        for name, schedule in self.load_schedules.items():
            row = comp.free_of[index[name]]
            if row >= 0:
                load_rows[int(row)] = schedule

        # Boundary nodes with schedules; unscheduled boundaries keep the
        # value set above for the whole run.
        scheduled_boundaries = []
        for name in names:
            fixed = net.node_fixed_temperature(name)
            if fixed is not None and name in self.boundary_schedules:
                scheduled_boundaries.append((index[name], name, fixed))

        times = [0.0]
        history = [temps.copy()]
        counters = {"assemblies": 0, "factorizations": 0,
                    "factorization_reuses": 0}

        for step in range(1, n_steps + 1):
            t_now = step * time_step
            for idx, name, fixed in scheduled_boundaries:
                temps[idx] = self._boundary_value(name, t_now, fixed)
            if comp.n_free:
                temps = self._implicit_step(comp, temps, load_rows,
                                            time_step, t_now, counters)
            times.append(t_now)
            history.append(temps.copy())

        history_arr = np.asarray(history)
        per_node = {name: history_arr[:, index[name]] for name in names}
        perf.record("network.transient", solves=1, iterations=n_steps,
                    wall_s=time.perf_counter() - start, **counters)
        return TransientNetworkResult(np.asarray(times), per_node)

    # -- internals ------------------------------------------------------------

    def _boundary_value(self, name: str, time: float, fallback: float
                        ) -> float:
        schedule = self.boundary_schedules.get(name)
        if schedule is None:
            return fallback
        value = float(schedule(time))
        if value <= 0.0:
            raise InputError(
                f"boundary schedule for {name!r} returned {value} K")
        return value

    def _operator_solver(self, comp, capacity_dt: np.ndarray, dt: float,
                         temps: np.ndarray, counters: Dict[str, int]):
        """Factorized ``diag(C/Δt) + K`` for this step, reused when constant.

        Constant-conductance networks factorize once per ``(structure,
        Δt)`` — schedules only change the right-hand side, so every
        subsequent step (and every later ``integrate`` call at the same
        step size) reuses the handle.  Callable conductances change the
        operator each step and force a fresh assembly + factorization.
        """
        if comp.nonlinear:
            g_var = comp.eval_callables(temps, strict=False)
            matrix = comp.operator(g_var, diagonal=capacity_dt)
            counters["assemblies"] += 1
            counters["factorizations"] += 1
            return factorized(matrix.tocsc()), g_var
        cached = self._lu_cache
        if cached is not None and cached[0] is comp and cached[1] == dt:
            counters["factorization_reuses"] += 1
            return cached[2], None
        matrix = comp.operator(diagonal=capacity_dt)
        solve = factorized(matrix.tocsc())
        self._lu_cache = (comp, dt, solve)
        counters["assemblies"] += 1
        counters["factorizations"] += 1
        return solve, None

    def _implicit_step(self, comp, temps, load_rows, dt, t_now, counters):
        """One backward-Euler step with start-of-step conductances."""
        capacity_dt = comp.capacitances / dt
        solve, g_var = self._operator_solver(comp, capacity_dt, dt, temps,
                                             counters)
        rhs = capacity_dt * temps[comp.free] + comp.heat_loads \
            + comp.coupling_rhs(temps, g_var)
        for row, schedule in load_rows.items():
            rhs[row] += float(schedule(t_now)) - comp.heat_loads[row]
        solution = np.atleast_1d(solve(rhs))
        new_temps = temps.copy()
        new_temps[comp.free] = solution
        return new_temps


def ramp_profile(start_value: float, end_value: float, ramp_rate: float,
                 hold_time: float = 0.0, start_time: float = 0.0) -> Schedule:
    """Build a linear ramp schedule f(t) from one value to another.

    The value holds at ``start_value`` until ``start_time``, ramps at
    ``ramp_rate`` (absolute units per second, sign inferred), then holds at
    ``end_value``.  ``hold_time`` is accepted for symmetry with cycle
    builders but does not alter the profile (the value holds indefinitely).
    """
    if ramp_rate <= 0.0:
        raise InputError("ramp rate must be positive")
    span = end_value - start_value
    ramp_duration = abs(span) / ramp_rate

    def profile(time: float) -> float:
        if time <= start_time:
            return start_value
        progress = min((time - start_time) / ramp_duration, 1.0) \
            if ramp_duration > 0.0 else 1.0
        return start_value + span * progress

    return profile


def cyclic_profile(low_value: float, high_value: float, ramp_rate: float,
                   dwell_time: float) -> Schedule:
    """Build a thermal-cycling schedule: dwell low → ramp up → dwell high →
    ramp down → repeat.

    Matches the DO-160 / MIL-STD thermal-shock pattern (−45 °C / +55 °C at
    5 °C/min in the paper's qualification campaign, when expressed in
    kelvin).
    """
    if ramp_rate <= 0.0 or dwell_time < 0.0:
        raise InputError("ramp rate must be positive, dwell non-negative")
    if high_value <= low_value:
        raise InputError("high value must exceed low value")
    ramp_duration = (high_value - low_value) / ramp_rate
    period = 2.0 * (dwell_time + ramp_duration)

    def profile(time: float) -> float:
        phase = time % period
        if phase < dwell_time:
            return low_value
        phase -= dwell_time
        if phase < ramp_duration:
            return low_value + ramp_rate * phase
        phase -= ramp_duration
        if phase < dwell_time:
            return high_value
        phase -= dwell_time
        return high_value - ramp_rate * phase

    return profile
