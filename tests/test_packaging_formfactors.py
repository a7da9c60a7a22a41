"""Tests for the ATR form-factor catalogue."""

import pytest

from avipack.errors import InputError
from avipack.packaging.formfactors import (
    ATR_WIDTHS,
    AtrCase,
)


class TestAtrCase:
    def test_width_ladder_monotone(self):
        ordered = ("1/4_atr", "3/8_atr", "1/2_atr", "3/4_atr", "1_atr")
        widths = [ATR_WIDTHS[size] for size in ordered]
        assert widths == sorted(widths)

    def test_half_atr_volume(self):
        # 124 x 194 x 318 mm = 7.65 litres.
        assert AtrCase("1/2_atr").volume_litres \
            == pytest.approx(7.65, rel=0.01)

    def test_long_case_deeper(self):
        short = AtrCase("1/2_atr", long_case=False)
        long = AtrCase("1/2_atr", long_case=True)
        assert long.volume_litres > 1.5 * short.volume_litres

    def test_card_count(self):
        assert AtrCase("1_atr").card_count(pitch=0.02) == 12
        assert AtrCase("1/4_atr").card_count(pitch=0.02) == 2

    def test_module_envelope_valid(self):
        envelope = AtrCase("3/4_atr").module_envelope()
        assert envelope.board_area > 0.0
        assert envelope.shell_area > 0.0

    def test_unknown_size(self):
        with pytest.raises(InputError):
            AtrCase("2_atr")

    def test_negative_power_density(self):
        with pytest.raises(InputError):
            AtrCase("1/2_atr").power_density(-1.0)
