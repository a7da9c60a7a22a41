"""Random-vibration response: PSD handling and Miles' equation.

Avionics vibration environments are specified as acceleration power
spectral densities (g²/Hz vs Hz) — DO-160 curve C1 in the paper's
qualification campaign.  This module provides

* a :class:`PowerSpectralDensity` defined by (frequency, level) break-
  points joined by dB/octave straight lines in log–log space, with exact
  segment integration for the overall g-RMS;
* Miles' equation for the RMS response of a lightly damped single mode
  driven by a broadband PSD;
* response PSD through a transmissibility function (isolator chains).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ..errors import InputError


@dataclass(frozen=True)
class PowerSpectralDensity:
    """Piecewise log–log linear acceleration PSD.

    ``points`` is a sequence of (frequency_hz, level_g2_hz) break-points
    with strictly increasing frequencies; between break-points the level
    follows a straight line in log–log space (constant dB/octave slope),
    matching how DO-160 and MIL-STD-810 define their curves.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise InputError("PSD needs at least two break-points")
        freqs = [f for f, _ in self.points]
        if any(f <= 0.0 for f in freqs):
            raise InputError("frequencies must be positive")
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:], strict=False)):
            raise InputError("frequencies must be strictly increasing")
        if any(level <= 0.0 for _, level in self.points):
            raise InputError("PSD levels must be positive")

    @property
    def f_min(self) -> float:
        """Lower frequency bound [Hz]."""
        return self.points[0][0]

    @property
    def f_max(self) -> float:
        """Upper frequency bound [Hz]."""
        return self.points[-1][0]

    def level(self, frequency: float) -> float:
        """PSD level at ``frequency`` [g²/Hz]; 0 outside the band."""
        if frequency <= 0.0:
            raise InputError("frequency must be positive")
        if frequency < self.f_min or frequency > self.f_max:
            return 0.0
        for (f1, l1), (f2, l2) in zip(self.points, self.points[1:],
                                      strict=False):
            if f1 <= frequency <= f2:
                slope = math.log(l2 / l1) / math.log(f2 / f1)
                return l1 * (frequency / f1) ** slope
        return self.points[-1][1]

    def slope_db_per_octave(self, segment: int) -> float:
        """dB/octave slope of segment ``segment`` (0-based)."""
        if not 0 <= segment < len(self.points) - 1:
            raise InputError("segment index out of range")
        (f1, l1), (f2, l2) = self.points[segment], self.points[segment + 1]
        return 10.0 * math.log10(l2 / l1) / math.log2(f2 / f1)

    def rms_g(self) -> float:
        """Overall g-RMS: sqrt of the exact integral of the PSD.

        Each log–log segment W(f) = W₁·(f/f₁)^m integrates in closed form
        (with the m = −1 special case handled).
        """
        total = 0.0
        for (f1, l1), (f2, l2) in zip(self.points, self.points[1:],
                                      strict=False):
            m = math.log(l2 / l1) / math.log(f2 / f1)
            if abs(m + 1.0) < 1e-12:
                total += l1 * f1 * math.log(f2 / f1)
            else:
                total += l1 / (m + 1.0) * (f2 * (f2 / f1) ** m - f1)
        return math.sqrt(total)

    def scaled(self, factor: float) -> "PowerSpectralDensity":
        """PSD with every level multiplied by ``factor`` (test margins)."""
        if factor <= 0.0:
            raise InputError("scale factor must be positive")
        return PowerSpectralDensity(
            tuple((f, level * factor) for f, level in self.points))

    def through_transmissibility(
            self, transmissibility: Callable[[float], float],
            n_points: int = 400) -> "PowerSpectralDensity":
        """Response PSD after a transfer function: W_out = |H|²·W_in.

        ``transmissibility`` maps frequency [Hz] to the magnitude |H(f)|.
        The result is re-sampled on a log grid of ``n_points``.
        """
        if n_points < 2:
            raise InputError("need at least two sample points")
        freqs = np.geomspace(self.f_min, self.f_max, n_points)
        points = []
        for f in freqs:
            h = float(transmissibility(float(f)))
            if h < 0.0:
                raise InputError("transmissibility must be non-negative")
            points.append((float(f), max(self.level(float(f)) * h * h,
                                         1e-30)))
        return PowerSpectralDensity(tuple(points))


def miles_rms_acceleration(natural_frequency: float, q_factor: float,
                           psd: PowerSpectralDensity) -> float:
    """Miles' equation: RMS response of a 1-DOF mode to broadband noise.

    g_RMS = sqrt(π/2 · f_n · Q · W(f_n)) — the standard avionics sizing
    formula (Steinberg).  Returns the response in g.
    """
    if natural_frequency <= 0.0:
        raise InputError("natural frequency must be positive")
    if q_factor <= 0.0:
        raise InputError("Q factor must be positive")
    w_fn = psd.level(natural_frequency)
    return math.sqrt(math.pi / 2.0 * natural_frequency * q_factor * w_fn)


def rms_displacement_from_acceleration(rms_accel_g: float,
                                       natural_frequency: float) -> float:
    """RMS displacement of a resonant mode from its RMS acceleration [m].

    z_RMS = a_RMS / ω_n² with a in m/s².
    """
    if natural_frequency <= 0.0:
        raise InputError("natural frequency must be positive")
    if rms_accel_g < 0.0:
        raise InputError("RMS acceleration must be non-negative")
    omega = 2.0 * math.pi * natural_frequency
    return rms_accel_g * 9.80665 / omega ** 2


def default_q_factor(natural_frequency: float) -> float:
    """Steinberg's empirical transmissibility estimate Q ≈ √f_n.

    Used when no measured damping is available for a PCB assembly.
    """
    if natural_frequency <= 0.0:
        raise InputError("natural frequency must be positive")
    return math.sqrt(natural_frequency)
