"""Tests for the linearised radiative film coefficient."""

import pytest

from avipack.errors import InputError
from avipack.thermal.radiation import linearized_radiation_coefficient


class TestLinearised:
    def test_coefficient_magnitude_room_temperature(self):
        # eps=0.9 near 300 K: h_r ~ 5.5 W/m2K.
        h = linearized_radiation_coefficient(0.9, 310.0, 293.0)
        assert h == pytest.approx(5.6, rel=0.1)

    def test_coefficient_grows_with_temperature(self):
        assert linearized_radiation_coefficient(0.9, 500.0, 300.0) \
            > linearized_radiation_coefficient(0.9, 310.0, 300.0)

    def test_invalid_emissivity(self):
        with pytest.raises(InputError):
            linearized_radiation_coefficient(1.2, 310.0, 300.0)
