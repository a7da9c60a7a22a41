"""Design-space enumeration: candidate stacks and grids over them.

The paper's "design at a minimum cost and in one shot" objective is, in
practice, a batch problem: hundreds of candidate packaging stacks —
cooling mode × TIM × form factor × power budget × plenum layout — are
pushed through the level-1/2/3 pyramid and the mechanical branch, and
the cheapest compliant stack wins.  This module provides the vocabulary
for that batch:

* :class:`Candidate` — one point of the design space, a *plain record*
  (deliberately unvalidated at construction so invalid points surface as
  structured failures during the sweep, not as an aborted enumeration);
* :class:`DesignSpace` — named axes over candidate fields with
  deterministic full-grid enumeration and seeded sub-sampling.

``Candidate.build()`` realises the point into the objects the design
procedure consumes (:class:`~avipack.packaging.rack.Rack`,
:class:`~avipack.core.design_flow.PackagingSpecification`), raising the
library's usual :class:`~avipack.errors.InputError` family for invalid
combinations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Dict, Iterator, List, Sequence, Tuple

from ..core.design_flow import PackagingSpecification
from ..errors import InputError
from ..fingerprint import stable_fingerprint
from ..labels import candidate_label, cooling_name
from ..packaging.cooling import CoolingTechnique, ModuleEnvelope
from ..packaging.formfactors import ATR_WIDTHS, AtrCase
from ..packaging.module import Module
from ..packaging.pcb import Pcb, dummy_resistive_pcb
from ..packaging.rack import Rack
from ..tim.catalog import get_tim

__all__ = ["Candidate", "DesignSpace"]

#: Clamped-edge TIM contact strip width [m] (wedge-lock rail footprint).
_EDGE_STRIP_WIDTH = 8.0e-3


def _coerce_cooling(value) -> CoolingTechnique:
    """Accept a :class:`CoolingTechnique` or its string value."""
    if isinstance(value, CoolingTechnique):
        return value
    try:
        return CoolingTechnique(value)
    except ValueError:
        raise InputError(
            f"unknown cooling technique {value!r}; known: "
            f"{sorted(t.value for t in CoolingTechnique)}") from None


@dataclass(frozen=True)
class Candidate:
    """One candidate packaging stack of the design space.

    Fields are stored as given — validation happens in :meth:`build` so
    a sweep over a grid containing broken points completes, reporting
    per-candidate failures.

    Parameters
    ----------
    power_per_module:
        Module dissipation budget [W].
    n_modules:
        Slots populated in the rack.
    cooling:
        Declared cooling technique (enum or its string value).
    tim_name:
        Catalogue name of the wedge-lock interface TIM
        (:func:`avipack.tim.catalog.get_tim`).
    form_factor:
        ATR width key (:data:`avipack.packaging.formfactors.ATR_WIDTHS`).
    series_fraction:
        Rack plenum layout, 0 = parallel feed, 1 = fully serial.
    temperature_category, vibration_curve:
        DO-160 environment selections for the specification.
    n_components:
        Dissipating components per board (level-3 population).
    long_case:
        ATR depth selection (318 vs 497 mm).
    """

    power_per_module: float = 20.0
    n_modules: int = 4
    cooling: object = CoolingTechnique.DIRECT_AIR_FLOW
    tim_name: str = "standard_grease"
    form_factor: str = "1/2_atr"
    series_fraction: float = 0.3
    temperature_category: str = "A1"
    vibration_curve: str = "C1"
    n_components: int = 6
    long_case: bool = False

    @cached_property
    def fingerprint(self) -> str:
        """Stable content fingerprint of the design point (hashed once)."""
        return stable_fingerprint(self)

    def __getstate__(self) -> dict:
        # The cached fingerprint stays out of the pickle: a candidate's
        # bytes do not depend on whether it was read, and an unpickled
        # candidate re-derives it from its fields.
        state = self.__dict__.copy()
        state.pop("fingerprint", None)
        return state

    @property
    def label(self) -> str:
        """Short human-readable identifier for tables and logs."""
        return candidate_label(self.power_per_module, self.n_modules,
                               self.form_factor, cooling_name(self.cooling),
                               self.tim_name, self.series_fraction)

    # -- realisation ---------------------------------------------------------

    def envelope(self) -> ModuleEnvelope:
        """Module envelope for the chosen form factor and TIM.

        The case sets the board size (depth × height with card margins);
        the TIM sets the wedge-lock edge conductance: the stock rail
        conductance in series with the assembled interface resistance.
        """
        case = AtrCase(size=self.form_factor, long_case=self.long_case)
        board_length = case.depth - 0.04
        board_width = case.height - 0.03
        tim = get_tim(self.tim_name)
        interface = tim.assemble(area=board_length * _EDGE_STRIP_WIDTH)
        rail_conductance = 8.0
        edge_conductance = 1.0 / (1.0 / rail_conductance
                                  + interface.resistance)
        return ModuleEnvelope(
            board_length=board_length,
            board_width=board_width,
            edge_conductance=edge_conductance,
            shell_area=case.external_area / max(self.n_modules, 1),
        )

    def board(self) -> Pcb:
        """The candidate's populated PCB (resistive test-vehicle style)."""
        envelope = self.envelope()
        return dummy_resistive_pcb(envelope.board_length,
                                   envelope.board_width,
                                   self.power_per_module,
                                   n_resistors=self.n_components)

    def build(self) -> Tuple[Rack, PackagingSpecification]:
        """Realise the candidate into a rack and its specification.

        Every module carries the same :class:`Pcb` object, so the
        pyramid builds and keys the board's level-3 model once.

        Raises
        ------
        InputError
            For any invalid field combination (negative power, unknown
            TIM or form factor, out-of-range series fraction, ...).
        """
        if self.n_modules < 1:
            raise InputError("candidate needs at least one module")
        if self.power_per_module <= 0.0:
            raise InputError("power per module must be positive")
        technique = _coerce_cooling(self.cooling)
        envelope = self.envelope()
        board = self.board()
        rack = Rack(name=f"sweep_{self.form_factor}",
                    series_fraction=self.series_fraction)
        for slot in range(self.n_modules):
            rack.add_module(Module(
                name=f"m{slot + 1}",
                pcb=board,
                envelope=envelope,
                technique=technique,
            ))
        spec = PackagingSpecification(
            name=self.label,
            temperature_category_name=self.temperature_category,
            vibration_curve_name=self.vibration_curve,
        )
        return rack, spec


_CANDIDATE_FIELDS = frozenset(f.name for f in fields(Candidate))


class DesignSpace:
    """Named axes over :class:`Candidate` fields.

    Examples
    --------
    >>> space = DesignSpace({
    ...     "power_per_module": (10.0, 30.0),
    ...     "tim_name": ("standard_grease", "nanopack_silver_flake_epoxy"),
    ... })
    >>> space.size
    4
    >>> [c.power_per_module for c in space.grid()]
    [10.0, 10.0, 30.0, 30.0]
    """

    def __init__(self, axes: Dict[str, Sequence],
                 base: Candidate = Candidate()) -> None:
        if not axes:
            raise InputError("design space needs at least one axis")
        for name, values in axes.items():
            if name not in _CANDIDATE_FIELDS:
                raise InputError(
                    f"unknown candidate field {name!r}; known: "
                    f"{sorted(_CANDIDATE_FIELDS)}")
            if not len(tuple(values)):
                raise InputError(f"axis {name!r} has no values")
        self.axes: Dict[str, Tuple] = {name: tuple(values)
                                       for name, values in axes.items()}
        self.base = base

    @property
    def size(self) -> int:
        """Number of grid points (product of axis lengths)."""
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def __len__(self) -> int:
        return self.size

    def grid(self) -> Iterator[Candidate]:
        """Yield every combination, deterministically.

        The last-declared axis varies fastest (row-major over the axes
        in declaration order), so enumeration order is a stable function
        of the space definition alone.
        """
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield replace(self.base, **dict(zip(names, combo, strict=True)))

    def sample(self, n: int, seed: int = 0) -> List[Candidate]:
        """A seeded uniform sub-sample of the grid, without replacement.

        Deterministic for a given ``(axes, n, seed)``; useful to scout a
        large space before committing to the full grid.
        """
        if n < 1:
            raise InputError("sample size must be >= 1")
        size = self.size
        if n >= size:
            return list(self.grid())
        rng = random.Random(seed)
        picks = sorted(rng.sample(range(size), n))
        wanted = iter(picks)
        target = next(wanted)
        chosen: List[Candidate] = []
        for index, candidate in enumerate(self.grid()):
            if index == target:
                chosen.append(candidate)
                target = next(wanted, None)
                if target is None:
                    break
        return chosen

    @classmethod
    def standard_tradeoff(cls, powers: Sequence[float] = (10.0, 20.0, 30.0),
                          form_factors: Sequence[str] = ("1/2_atr", "1_atr"),
                          ) -> "DesignSpace":
        """The canonical cooling × TIM × form × power trade space.

        Covers every Fig. 5 cooling principle and a cheap/NANOPACK TIM
        pair over the given power budgets and ATR widths.
        """
        for form in form_factors:
            if form not in ATR_WIDTHS:
                raise InputError(f"unknown ATR size {form!r}")
        return cls({
            "power_per_module": tuple(powers),
            "form_factor": tuple(form_factors),
            "cooling": tuple(CoolingTechnique),
            "tim_name": ("standard_grease", "nanopack_silver_flake_epoxy"),
        })
