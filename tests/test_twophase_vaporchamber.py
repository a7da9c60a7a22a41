"""Tests for the flat vapor-chamber heat spreader."""

from dataclasses import replace

import pytest

from avipack.errors import InputError, OperatingLimitError
from avipack.twophase.vaporchamber import electronics_vapor_chamber
from avipack.twophase.wick import sintered_necked_wick, \
    sintered_powder_wick

T_OP = 353.15  # 80 degC vapour


@pytest.fixture
def chamber():
    return electronics_vapor_chamber()


class TestEffectiveConductivity:
    def test_far_exceeds_copper(self, chamber):
        assert chamber.effective_conductivity(T_OP) > 5.0 * 398.0

    def test_capped_at_practical_ceiling(self, chamber):
        assert chamber.effective_conductivity(T_OP) \
            <= chamber.max_effective_conductivity

    def test_hotter_vapor_carries_more_or_caps(self, chamber):
        uncapped = replace(chamber, max_effective_conductivity=1e9)
        assert uncapped.effective_conductivity(360.0) \
            > uncapped.effective_conductivity(300.0)

    def test_thicker_vapor_gap_helps(self, chamber):
        uncapped = replace(chamber, max_effective_conductivity=1e9)
        thick = replace(uncapped, thickness=5e-3)
        assert thick.effective_conductivity(T_OP) \
            > uncapped.effective_conductivity(T_OP)


class TestLimits:
    def test_handles_100w_cm2(self, chamber):
        # The enabling number for the paper's hot-spot crisis.
        assert chamber.boiling_limit(1.0e-4) >= 100.0

    def test_capillary_generous(self, chamber):
        assert chamber.capillary_limit(T_OP) > chamber.boiling_limit(1e-4)

    def test_overload_raises(self, chamber):
        with pytest.raises(OperatingLimitError) as excinfo:
            chamber.check_operation(500.0, 1e-4, T_OP)
        assert excinfo.value.limit_name in ("boiling", "capillary")

    def test_within_limits_silent(self, chamber):
        chamber.check_operation(80.0, 1e-4, T_OP)


class TestSpreading:
    def test_beats_copper_spreader(self, chamber):
        assert chamber.improvement_over_copper(1e-4, T_OP) > 1.2

    def test_hotspot_delta_t_manageable(self, chamber):
        # 100 W on 1 cm2 through the chamber: tens of K, not thousands.
        delta_t = 100.0 * chamber.hotspot_resistance(1e-4, T_OP)
        assert delta_t < 30.0

    def test_smaller_source_higher_resistance(self, chamber):
        small = chamber.hotspot_resistance(0.25e-4, T_OP)
        large = chamber.hotspot_resistance(4e-4, T_OP)
        assert small > large

    def test_evaporator_stack_dominates(self, chamber):
        r_total = chamber.hotspot_resistance(1e-4, T_OP)
        r_stack = chamber.evaporator_stack_resistance(1e-4)
        assert r_stack > 0.5 * r_total

    def test_source_covering_chamber_rejected(self, chamber):
        with pytest.raises(InputError):
            chamber.hotspot_resistance(chamber.footprint_area, T_OP)


class TestConstruction:
    def test_no_vapor_space_rejected(self, chamber):
        with pytest.raises(InputError):
            replace(chamber, thickness=1.9e-3)  # walls+wicks = 2 mm

    def test_invalid_dimension(self, chamber):
        with pytest.raises(InputError):
            replace(chamber, length=-0.08)


class TestNeckedWick:
    def test_necked_beats_packed_conductivity(self):
        packed = sintered_powder_wick(40e-6, 0.55, 398.0, 0.63)
        necked = sintered_necked_wick(40e-6, 0.55, 398.0, 0.63)
        assert necked.conductivity_saturated \
            > 5.0 * packed.conductivity_saturated

    def test_necked_same_hydraulics(self):
        packed = sintered_powder_wick(40e-6, 0.55, 398.0, 0.63)
        necked = sintered_necked_wick(40e-6, 0.55, 398.0, 0.63)
        assert necked.permeability == pytest.approx(packed.permeability)
        assert necked.effective_pore_radius \
            == pytest.approx(packed.effective_pore_radius)

    def test_copper_water_literature_band(self):
        # Sintered Cu/water wicks measure ~30-50 W/m.K saturated.
        necked = sintered_necked_wick(40e-6, 0.55, 398.0, 0.63)
        assert 20.0 < necked.conductivity_saturated < 60.0
