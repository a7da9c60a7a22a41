"""Tests for the isolator model (the IMU mechanical filter of Fig. 3)."""

import math

import pytest

from avipack.errors import InputError
from avipack.mechanical.isolation import (
    Isolator,
    damper_tuning,
    design_isolator,
    static_sag,
    stiffness_for_frequency,
)


@pytest.fixture
def isolator():
    return Isolator(mount_frequency=25.0, damping_ratio=0.1)


class TestTransmissibility:
    def test_unity_at_low_frequency(self, isolator):
        assert isolator.transmissibility(1.0) == pytest.approx(1.0,
                                                               abs=0.01)

    def test_amplification_at_resonance(self, isolator):
        # Q ~ 1/(2 zeta) = 5 for zeta = 0.1.
        assert isolator.transmissibility(25.0) == pytest.approx(5.0,
                                                                rel=0.05)

    def test_unity_at_crossover(self, isolator):
        t = isolator.transmissibility(isolator.crossover_frequency)
        assert t == pytest.approx(1.0, rel=0.02)

    def test_attenuation_above_crossover(self, isolator):
        assert isolator.transmissibility(200.0) < 0.1

    def test_resonant_peak_property(self, isolator):
        assert isolator.resonant_transmissibility == pytest.approx(
            isolator.transmissibility(25.0), rel=0.02)

    def test_more_damping_lower_peak(self):
        lightly = Isolator(25.0, 0.05)
        heavily = Isolator(25.0, 0.3)
        assert heavily.resonant_transmissibility \
            < lightly.resonant_transmissibility

    def test_more_damping_worse_high_frequency(self):
        # The classic damping trade-off.
        lightly = Isolator(25.0, 0.05)
        heavily = Isolator(25.0, 0.3)
        assert heavily.transmissibility(500.0) \
            > lightly.transmissibility(500.0)

    def test_isolation_efficiency_sign(self, isolator):
        assert isolator.isolation_efficiency(200.0) > 0.0
        assert isolator.isolation_efficiency(25.0) < 0.0


class TestPsdResponse:
    def test_isolated_rms_below_input(self, isolator, flat_psd):
        # A 25 Hz mount under a 10-2000 Hz PSD strips most energy.
        assert isolator.response_rms_g(flat_psd) < flat_psd.rms_g()

    def test_response_psd_shape(self, isolator, flat_psd):
        out = isolator.response_psd(flat_psd)
        assert out.level(25.0) > flat_psd.level(25.0)       # resonance
        assert out.level(500.0) < flat_psd.level(500.0)     # isolation


class TestDesignHelpers:
    def test_stiffness_formula(self):
        k = stiffness_for_frequency(2.0, 20.0)
        assert k == pytest.approx(2.0 * (2 * math.pi * 20.0) ** 2)

    def test_static_sag_formula(self):
        assert static_sag(10.0) == pytest.approx(
            9.80665 / (2 * math.pi * 10.0) ** 2)

    def test_design_isolator_meets_attenuation(self):
        iso, stiffness = design_isolator(
            equipment_mass=3.0, disturbance_frequency=200.0,
            required_attenuation=0.1)
        assert iso.transmissibility(200.0) <= 0.1 + 1e-6
        assert stiffness > 0.0

    def test_design_isolator_respects_sag(self):
        iso, _k = design_isolator(3.0, 200.0, 0.1, max_sag=5e-3)
        assert static_sag(iso.mount_frequency) <= 5e-3 + 1e-9

    def test_impossible_design_rejected(self):
        # 30 Hz disturbance with tiny sag allowance cannot be isolated.
        with pytest.raises(InputError):
            design_isolator(3.0, 30.0, 0.05, max_sag=0.5e-3)

    def test_damper_tuning_caps_q(self, flat_psd):
        sharp = Isolator(25.0, 0.02)
        tuned = damper_tuning(sharp, flat_psd, max_resonant_q=4.0)
        assert tuned.resonant_transmissibility <= 4.0 + 0.05
        assert tuned.damping_ratio > sharp.damping_ratio

    def test_damper_tuning_noop_when_ok(self, flat_psd):
        soft = Isolator(25.0, 0.3)
        assert damper_tuning(soft, flat_psd, max_resonant_q=5.0) is soft


class TestValidation:
    def test_invalid_frequency(self):
        with pytest.raises(InputError):
            Isolator(-1.0, 0.1)

    def test_invalid_damping(self):
        with pytest.raises(InputError):
            Isolator(25.0, 0.0)

    def test_invalid_query(self, isolator):
        with pytest.raises(InputError):
            isolator.transmissibility(0.0)
