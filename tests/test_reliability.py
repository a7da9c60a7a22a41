"""Tests for the reliability (MTBF) prediction models."""

import pytest

from avipack.errors import InputError
from avipack.reliability.mtbf import (
    PartReliability,
    fan_reliability_penalty,
    predict_mtbf,
)
from avipack.units import celsius_to_kelvin


@pytest.fixture
def parts():
    return [
        PartReliability("cpu", base_failure_rate_fit=400.0,
                        activation_energy_ev=0.5),
        PartReliability("fpga", base_failure_rate_fit=300.0),
        PartReliability("power", base_failure_rate_fit=600.0,
                        quality="full_mil"),
    ]


def junctions(temp_c):
    t = celsius_to_kelvin(temp_c)
    return {"cpu": t, "fpga": t, "power": t}


class TestArrhenius:
    def test_unity_at_reference(self):
        part = PartReliability("p", 100.0)
        assert part.temperature_factor(celsius_to_kelvin(40.0)) \
            == pytest.approx(1.0)

    def test_acceleration_with_temperature(self):
        part = PartReliability("p", 100.0, activation_energy_ev=0.5)
        # 0.5 eV from 40 to 100 degC: ~15-20x acceleration.
        factor = part.temperature_factor(celsius_to_kelvin(100.0))
        assert 10.0 < factor < 30.0

    def test_cooling_decelerates(self):
        part = PartReliability("p", 100.0)
        assert part.temperature_factor(celsius_to_kelvin(20.0)) < 1.0

    def test_higher_activation_stronger_effect(self):
        mild = PartReliability("p", 100.0, activation_energy_ev=0.3)
        steep = PartReliability("p", 100.0, activation_energy_ev=0.7)
        t_hot = celsius_to_kelvin(100.0)
        assert steep.temperature_factor(t_hot) \
            > mild.temperature_factor(t_hot)

    def test_cots_quality_penalty(self):
        # The paper's COTS concern: commercial parts predict worse.
        mil = PartReliability("p", 100.0, quality="full_mil")
        cots = PartReliability("p", 100.0, quality="commercial_cots")
        t = celsius_to_kelvin(60.0)
        env = "airborne_inhabited_cargo"
        assert cots.failure_rate_fit(t, env) \
            == pytest.approx(5.0 * mil.failure_rate_fit(t, env))

    def test_unknown_environment(self):
        part = PartReliability("p", 100.0)
        with pytest.raises(InputError):
            part.failure_rate_fit(350.0, "submarine")

    def test_invalid_quality(self):
        with pytest.raises(InputError):
            PartReliability("p", 100.0, quality="hobbyist")


class TestPrediction:
    def test_40k_hour_class(self, parts):
        # Well cooled avionics: the paper's "typical MTBF ... about
        # 40,000 h" must be achievable with this parts list.
        prediction = predict_mtbf(parts, junctions(60.0))
        assert 10_000.0 < prediction.mtbf_hours < 200_000.0

    def test_hot_junctions_kill_mtbf(self, parts):
        cool = predict_mtbf(parts, junctions(60.0))
        hot = predict_mtbf(parts, junctions(120.0))
        assert hot.mtbf_hours < cool.mtbf_hours / 3.0

    def test_junction_over_125_flagged(self, parts):
        prediction = predict_mtbf(parts, junctions(130.0))
        assert prediction.derating_violations
        assert not prediction.compliant_40k

    def test_ambient_over_85_flagged(self, parts):
        prediction = predict_mtbf(parts, junctions(60.0),
                                  ambient_temperature=celsius_to_kelvin(
                                      90.0))
        assert any("ambient" in v for v in prediction.derating_violations)

    def test_missing_junction_rejected(self, parts):
        with pytest.raises(InputError):
            predict_mtbf(parts, {"cpu": 350.0})

    def test_per_part_rates_sum(self, parts):
        prediction = predict_mtbf(parts, junctions(60.0))
        assert sum(prediction.per_part_fit.values()) \
            == pytest.approx(prediction.total_failure_rate_fit)

    def test_empty_parts_rejected(self):
        with pytest.raises(InputError):
            predict_mtbf([], {})


class TestImprovements:

    def test_fan_penalty(self):
        # Fans dominate: 2 fans on a 5000-FIT box cost >3x MTBF.
        ratio = fan_reliability_penalty(5000.0, n_fans=2)
        assert ratio < 0.3

    def test_no_fans_no_penalty(self):
        assert fan_reliability_penalty(5000.0, 0) == pytest.approx(1.0)

    def test_invalid_fan_count(self):
        with pytest.raises(InputError):
            fan_reliability_penalty(5000.0, -1)
