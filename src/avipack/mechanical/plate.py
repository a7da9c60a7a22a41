"""Kirchhoff plate modal analysis for PCBs and panels.

The mechanical design examples of the paper hinge on *mode placement*: the
Ariane navigation-unit power supply was designed so its first resonance
lands near 500 Hz, per the launcher's frequency-allocation plan (Fig. 2).
This module computes the natural frequencies of thin
rectangular plates — the standard idealisation of a PCB — via the
Rayleigh–Ritz method with separable beam characteristic functions, which
is accurate to a few percent for the low modes that matter.

Supported edge conditions per edge pair: simply supported (``"SS"``),
clamped (``"CC"``), free (``"FF"``) and clamped-free (``"CF"``).  Component
masses are smeared into an effective surface density, the common practice
for populated boards; stiffeners add smeared bending stiffness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import InputError

#: Beam eigenvalue coefficients (λ_i·L) for the characteristic functions
#: used by the Rayleigh–Ritz expansion, per boundary pair.
_BEAM_LAMBDAS: Dict[str, Tuple[float, ...]] = {
    # simply supported - simply supported: λ_i = i·π
    "SS": tuple(i * math.pi for i in range(1, 7)),
    # clamped-clamped
    "CC": (4.7300, 7.8532, 10.9956, 14.1372, 17.2788, 20.4204),
    # clamped-free (cantilever)
    "CF": (1.8751, 4.6941, 7.8548, 10.9955, 14.1372, 17.2788),
    # free-free: the rigid-body mode (lambda = 0) followed by the
    # elastic free-free eigenvalues
    "FF": (0.0, 4.7300, 7.8532, 10.9956, 14.1372, 17.2788),
}

#: Galerkin integral coefficients for the beam functions: for each support
#: pair, the ratio ∫(φ'')²dx·L⁴ / (λ⁴·∫φ²dx) equals 1 exactly, so the
#: classical separable approximation ω² ≈ D/ρh · (λx⁴ + λy⁴ + 2·λx²·λy²)/L⁴
#: holds with correction factors close to 1 (Blevins 1979).


@dataclass(frozen=True)
class PlateSpec:
    """A rectangular plate (PCB, panel, cover).

    Parameters
    ----------
    length, width:
        In-plane dimensions a × b [m]; modes are indexed (m, n) along them.
    thickness:
        Plate thickness [m].
    youngs_modulus, poisson_ratio, density:
        Plate material properties (FR-4 laminate for a PCB).
    support:
        Two-character codes for the (x, y) edge pairs, e.g. ``("SS", "SS")``
        for a board simply supported on all four edges (card guides), or
        ``("CC", "SS")`` for wedge-locked edges.
    component_mass:
        Total mass of mounted components [kg], smeared uniformly.
    stiffener_rigidity:
        Additional smeared bending rigidity from stiffeners/frames [N·m].
    """

    length: float
    width: float
    thickness: float
    youngs_modulus: float
    poisson_ratio: float
    density: float
    support: Tuple[str, str] = ("SS", "SS")
    component_mass: float = 0.0
    stiffener_rigidity: float = 0.0

    def __post_init__(self) -> None:
        for name in ("length", "width", "thickness", "youngs_modulus",
                     "density"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise InputError("Poisson ratio must be in [0, 0.5)")
        if self.component_mass < 0.0 or self.stiffener_rigidity < 0.0:
            raise InputError(
                "component mass and stiffener rigidity must be >= 0")
        for code in self.support:
            if code not in _BEAM_LAMBDAS:
                raise InputError(
                    f"unknown support code {code!r}; expected one of "
                    f"{sorted(_BEAM_LAMBDAS)}")

    @property
    def flexural_rigidity(self) -> float:
        """Bending rigidity D = E·h³/(12(1−ν²)) + stiffeners [N·m]."""
        d_plate = (self.youngs_modulus * self.thickness ** 3
                   / (12.0 * (1.0 - self.poisson_ratio ** 2)))
        return d_plate + self.stiffener_rigidity

    @property
    def surface_density(self) -> float:
        """Mass per unit area including smeared components [kg/m²]."""
        return (self.density * self.thickness
                + self.component_mass / (self.length * self.width))

    @property
    def total_mass(self) -> float:
        """Plate + component mass [kg]."""
        return self.surface_density * self.length * self.width


@dataclass(frozen=True)
class PlateMode:
    """One plate natural mode.

    ``indices`` are the half-wave counts (m, n) along (length, width).
    """

    frequency_hz: float
    indices: Tuple[int, int]

    @property
    def omega(self) -> float:
        """Angular frequency [rad/s]."""
        return 2.0 * math.pi * self.frequency_hz


def plate_modes(plate: PlateSpec, n_modes: int = 6) -> List[PlateMode]:
    """Natural frequencies of ``plate``, lowest first.

    Uses the separable Rayleigh quotient with beam characteristic
    eigenvalues per direction:

    .. math::

       \\omega_{mn}^2 = \\frac{D}{\\rho h}
           \\left[ \\left(\\frac{\\lambda_m}{a}\\right)^4
                 + \\left(\\frac{\\lambda_n}{b}\\right)^4
                 + 2 \\left(\\frac{\\lambda_m}{a}\\right)^2
                     \\left(\\frac{\\lambda_n}{b}\\right)^2 \\right]

    which is exact for all-simply-supported plates and a standard upper
    bound otherwise.
    """
    if n_modes < 1:
        raise InputError("need at least one mode")
    lambdas_x = _BEAM_LAMBDAS[plate.support[0]]
    lambdas_y = _BEAM_LAMBDAS[plate.support[1]]
    stiffness_ratio = plate.flexural_rigidity / plate.surface_density
    modes: List[PlateMode] = []
    for m, lam_x in enumerate(lambdas_x, start=1):
        for n, lam_y in enumerate(lambdas_y, start=1):
            kx = lam_x / plate.length
            ky = lam_y / plate.width
            omega_sq = stiffness_ratio * (kx ** 4 + ky ** 4
                                          + 2.0 * kx ** 2 * ky ** 2)
            frequency = math.sqrt(omega_sq) / (2.0 * math.pi)
            modes.append(PlateMode(frequency, (m, n)))
    modes.sort(key=lambda mode: mode.frequency_hz)
    return modes[:n_modes]


def fundamental_frequency(plate: PlateSpec) -> float:
    """First natural frequency of ``plate`` [Hz]."""
    return plate_modes(plate, 1)[0].frequency_hz


def stiffener_rigidity_for_frequency(plate: PlateSpec, target_hz: float
                                     ) -> float:
    """Smeared stiffener rigidity that places the fundamental at
    ``target_hz`` [N·m], holding the laminate fixed.

    Returns 0 if the bare plate already exceeds the target.
    """
    from dataclasses import replace

    if target_hz <= 0.0:
        raise InputError("target frequency must be positive")
    bare = fundamental_frequency(replace(plate, stiffener_rigidity=0.0))
    if bare >= target_hz:
        return 0.0
    # f ∝ sqrt(D): solve directly.
    d_bare = replace(plate, stiffener_rigidity=0.0).flexural_rigidity
    required_d = d_bare * (target_hz / bare) ** 2
    return required_d - d_bare
