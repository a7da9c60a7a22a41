"""Effective thermal conductivity models for filled thermal interface
materials.

The NANOPACK project's headline results are filler/matrix composites:
silver flakes in mono-epoxy (6 W/m·K), micro silver spheres in multi-epoxy
(9.5 W/m·K) and a metal–polymer composite reaching 20 W/m·K.  These
numbers are governed by classical effective-medium physics, implemented
here with the **Lewis–Nielsen** model — the industry-standard fit with
particle shape and maximum-packing parameters, used to *design* a loading
for a target conductivity — and the electrical resistivity of a
percolating filled adhesive.

The conductivity functions take matrix conductivity k_m, filler
conductivity k_f and volume fraction φ; the composite conductivity is in
W/(m·K).
"""

from __future__ import annotations

from ..errors import InputError

#: (shape factor A, maximum packing fraction φ_max) per filler geometry
#: for the Lewis–Nielsen model (Nielsen 1974).
LEWIS_NIELSEN_SHAPES = {
    "spheres": (1.5, 0.637),           # random close-packed spheres
    "spheres_agglomerated": (3.0, 0.637),
    "irregular": (3.0, 0.637),
    "flakes": (5.0, 0.52),             # platelets / silver flakes
    "short_fibers": (4.93, 0.52),      # aspect ratio ~10 rods
    "long_fibers": (8.38, 0.52),       # aspect ratio ~15+ (CNT bundles)
}


def _validate(k_matrix: float, k_filler: float, fraction: float) -> None:
    if k_matrix <= 0.0 or k_filler <= 0.0:
        raise InputError("conductivities must be positive")
    if not 0.0 <= fraction < 1.0:
        raise InputError("volume fraction must be in [0, 1)")


def lewis_nielsen(k_matrix: float, k_filler: float, fraction: float,
                  shape: str = "spheres") -> float:
    """Lewis–Nielsen model with shape factor and maximum packing.

    k = k_m·(1 + A·B·φ) / (1 − B·ψ·φ) with
    B = (k_f/k_m − 1)/(k_f/k_m + A) and
    ψ = 1 + φ·(1 − φ_max)/φ_max².

    The workhorse for *designing* filled adhesives: pick a shape, then
    invert for the loading that hits a target conductivity.
    """
    _validate(k_matrix, k_filler, fraction)
    if shape not in LEWIS_NIELSEN_SHAPES:
        raise InputError(f"unknown shape {shape!r}; known: "
                         f"{sorted(LEWIS_NIELSEN_SHAPES)}")
    a, phi_max = LEWIS_NIELSEN_SHAPES[shape]
    if fraction >= phi_max:
        raise InputError(
            f"loading {fraction:.2f} exceeds maximum packing "
            f"{phi_max:.3f} for {shape}")
    ratio = k_filler / k_matrix
    b = (ratio - 1.0) / (ratio + a)
    psi = 1.0 + fraction * (1.0 - phi_max) / phi_max ** 2
    return k_matrix * (1.0 + a * b * fraction) / (1.0 - b * psi * fraction)


def loading_for_conductivity(k_matrix: float, k_filler: float,
                             target: float,
                             shape: str = "spheres") -> float:
    """Invert Lewis–Nielsen: the volume fraction that yields ``target``.

    Raises :class:`InputError` if the target is unreachable below maximum
    packing.
    """
    if target <= k_matrix:
        raise InputError("target must exceed the matrix conductivity")
    _a, phi_max = LEWIS_NIELSEN_SHAPES.get(
        shape, (None, None)) if shape in LEWIS_NIELSEN_SHAPES else (None,
                                                                    None)
    if phi_max is None:
        raise InputError(f"unknown shape {shape!r}")
    lo, hi = 0.0, phi_max - 1e-4
    if lewis_nielsen(k_matrix, k_filler, hi, shape) < target:
        raise InputError(
            f"target {target} W/m.K unreachable with this filler/shape "
            f"(max {lewis_nielsen(k_matrix, k_filler, hi, shape):.2f})")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if lewis_nielsen(k_matrix, k_filler, mid, shape) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def electrical_resistivity_filled(rho_filler: float, fraction: float,
                                  threshold: float = 0.17,
                                  exponent: float = 1.8) -> float:
    """Electrical resistivity of a percolating filled adhesive [Ω·m].

    Returns ``inf`` below threshold (insulating matrix dominates); above
    it the filler network conducts with ρ = ρ_f·[(1−φ_c)/(φ−φ_c)]^t.
    The NANOPACK silver adhesives report 1e-6–1e-4 Ω·cm class values.
    """
    if rho_filler <= 0.0:
        raise InputError("filler resistivity must be positive")
    if not 0.0 <= fraction < 1.0:
        raise InputError("fraction must be in [0, 1)")
    if fraction <= threshold:
        return float("inf")
    return rho_filler * ((1.0 - threshold)
                         / (fraction - threshold)) ** exponent
