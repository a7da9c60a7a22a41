"""Tests for the working-fluid wrapper and fluid selection."""

import pytest

from avipack.errors import InputError
from avipack.twophase.workingfluid import WorkingFluid, select_fluid


class TestWorkingFluidSelection:
    def test_fluid_wrapper_rejects_unknown(self):
        with pytest.raises(InputError):
            WorkingFluid("kerosene")

    def test_select_fluid_room_temperature(self):
        # At cabin temperatures with the -55 degC survival rule, water is
        # excluded (frozen) and ammonia's merit wins.
        name, merit = select_fluid(t_operating=320.0)
        assert name == "ammonia"
        assert merit > 0.0

    def test_select_fluid_relaxed_survival_prefers_water(self):
        name, _merit = select_fluid(t_operating=330.0,
                                    t_min_survival=285.0)
        assert name == "water"

    def test_pressure_ceiling_excludes_ammonia(self):
        # Ammonia at 350 K is ~37 bar; capping at 10 bar forces another
        # fluid even with a cold (-18 degC) survival requirement.
        name, _merit = select_fluid(t_operating=350.0,
                                    t_min_survival=255.0,
                                    max_pressure=1.0e6)
        assert name != "ammonia"

    def test_impossible_requirement(self):
        with pytest.raises(InputError):
            select_fluid(t_operating=320.0, t_min_survival=150.0,
                         max_pressure=100.0)

    def test_merit_number_consistency(self):
        fluid = WorkingFluid("water")
        state = fluid.saturation(350.0)
        assert fluid.merit_number(350.0) == pytest.approx(
            state.merit_number())
