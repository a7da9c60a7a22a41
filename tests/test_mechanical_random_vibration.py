"""Tests for PSD handling and Miles' equation."""

import math

import pytest

from avipack.errors import InputError
from avipack.mechanical.random_vibration import (
    PowerSpectralDensity,
    default_q_factor,
    miles_rms_acceleration,
    rms_displacement_from_acceleration,
)


class TestPsd:
    def test_flat_psd_rms(self, flat_psd):
        # grms = sqrt(W * bandwidth) for a flat PSD.
        expected = math.sqrt(0.01 * (2000.0 - 10.0))
        assert flat_psd.rms_g() == pytest.approx(expected, rel=1e-9)

    def test_level_inside_band(self, flat_psd):
        assert flat_psd.level(100.0) == pytest.approx(0.01)

    def test_level_outside_band_zero(self, flat_psd):
        assert flat_psd.level(5.0) == 0.0
        assert flat_psd.level(5000.0) == 0.0

    def test_sloped_segment_interpolation(self):
        psd = PowerSpectralDensity(((10.0, 0.001), (40.0, 0.016)))
        # +6 dB/oct slope: W ~ f^2.
        assert psd.level(20.0) == pytest.approx(0.004, rel=1e-9)

    def test_slope_db_per_octave(self):
        psd = PowerSpectralDensity(((10.0, 0.001), (40.0, 0.016)))
        assert psd.slope_db_per_octave(0) == pytest.approx(6.02, rel=1e-3)

    def test_rms_with_slopes_matches_quadrature(self):
        # Piecewise integral cross-check against numerical quadrature.
        import numpy as np

        psd = PowerSpectralDensity(((10.0, 0.001), (40.0, 0.016),
                                    (500.0, 0.016), (2000.0, 0.001)))
        freqs = np.geomspace(10.0, 2000.0, 200_000)
        numeric = math.sqrt(np.trapezoid([psd.level(float(f)) for f in freqs],
                                     freqs))
        assert psd.rms_g() == pytest.approx(numeric, rel=1e-3)

    def test_scaled(self, flat_psd):
        doubled = flat_psd.scaled(4.0)
        assert doubled.rms_g() == pytest.approx(2.0 * flat_psd.rms_g())

    def test_through_transmissibility_identity(self, flat_psd):
        passed = flat_psd.through_transmissibility(lambda f: 1.0)
        assert passed.rms_g() == pytest.approx(flat_psd.rms_g(), rel=0.01)

    def test_through_transmissibility_attenuation(self, flat_psd):
        halved = flat_psd.through_transmissibility(lambda f: 0.5)
        assert halved.rms_g() == pytest.approx(0.5 * flat_psd.rms_g(),
                                               rel=0.01)

    def test_non_monotonic_frequencies_rejected(self):
        with pytest.raises(InputError):
            PowerSpectralDensity(((100.0, 0.01), (10.0, 0.01)))

    def test_single_point_rejected(self):
        with pytest.raises(InputError):
            PowerSpectralDensity(((100.0, 0.01),))

    def test_negative_level_rejected(self):
        with pytest.raises(InputError):
            PowerSpectralDensity(((10.0, -0.01), (100.0, 0.01)))


class TestMiles:
    def test_formula(self, flat_psd):
        # g_rms = sqrt(pi/2 f Q W).
        expected = math.sqrt(math.pi / 2.0 * 100.0 * 10.0 * 0.01)
        assert miles_rms_acceleration(100.0, 10.0, flat_psd) \
            == pytest.approx(expected, rel=1e-9)

    def test_zero_outside_band(self, flat_psd):
        assert miles_rms_acceleration(5000.0, 10.0, flat_psd) == 0.0

    def test_response_grows_with_q(self, flat_psd):
        assert miles_rms_acceleration(100.0, 25.0, flat_psd) \
            > miles_rms_acceleration(100.0, 10.0, flat_psd)

    def test_invalid_frequency(self, flat_psd):
        with pytest.raises(InputError):
            miles_rms_acceleration(-100.0, 10.0, flat_psd)


class TestDerived:
    def test_displacement_from_acceleration(self):
        # z = a/omega^2: 1 g at 100 Hz -> 24.8 um.
        z = rms_displacement_from_acceleration(1.0, 100.0)
        assert z == pytest.approx(9.80665 / (2 * math.pi * 100.0) ** 2)

    def test_displacement_falls_with_frequency(self):
        assert rms_displacement_from_acceleration(1.0, 400.0) \
            < rms_displacement_from_acceleration(1.0, 100.0)

    def test_default_q_is_sqrt_f(self):
        assert default_q_factor(400.0) == pytest.approx(20.0)
