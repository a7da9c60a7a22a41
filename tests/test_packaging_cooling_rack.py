"""Tests for cooling-technique evaluation, modules and racks."""

import pytest

from avipack.errors import InputError
from avipack.packaging.cooling import (
    CoolingTechnique,
    ModuleEnvelope,
    compare_techniques,
    evaluate_cooling,
    max_power_for_limit,
)
from avipack.packaging.module import Module, module_generation
from avipack.packaging.rack import Rack, computer_rack


class TestCoolingTechniques:
    def test_all_techniques_evaluate(self):
        results = compare_techniques(30.0)
        assert set(results) == set(CoolingTechnique)
        for evaluation in results.values():
            assert evaluation.rise > 0.0

    def test_liquid_beats_free_convection(self):
        results = compare_techniques(60.0)
        assert results[CoolingTechnique.LIQUID_FLOW_THROUGH].rise \
            < results[CoolingTechnique.FREE_CONVECTION].rise

    def test_forced_air_beats_free_convection(self):
        results = compare_techniques(60.0)
        assert results[CoolingTechnique.DIRECT_AIR_FLOW].rise \
            < results[CoolingTechnique.FREE_CONVECTION].rise

    def test_free_convection_fails_at_60w(self):
        # The Fig. 6 trend end point: 60 W/module is beyond passive air.
        evaluation = evaluate_cooling(CoolingTechnique.FREE_CONVECTION,
                                      60.0)
        assert not evaluation.feasible_85c

    def test_direct_air_ok_at_10w(self):
        evaluation = evaluate_cooling(CoolingTechnique.DIRECT_AIR_FLOW,
                                      10.0)
        assert evaluation.feasible_85c

    def test_rise_monotone_in_power(self):
        rises = [evaluate_cooling(CoolingTechnique.CONDUCTION_COOLED,
                                  p).rise for p in (10.0, 30.0, 60.0)]
        assert rises == sorted(rises)

    def test_max_power_ordering(self):
        # Capability ladder: free convection < direct air.
        p_free = max_power_for_limit(CoolingTechnique.FREE_CONVECTION)
        p_air = max_power_for_limit(CoolingTechnique.DIRECT_AIR_FLOW)
        assert p_free < p_air

    def test_free_convection_capability_class(self):
        # Passive boxes top out at a few tens of watts.
        p_free = max_power_for_limit(CoolingTechnique.FREE_CONVECTION)
        assert 5.0 < p_free < 80.0

    def test_invalid_power(self):
        with pytest.raises(InputError):
            evaluate_cooling(CoolingTechnique.FREE_CONVECTION, -1.0)

    def test_invalid_envelope(self):
        with pytest.raises(InputError):
            ModuleEnvelope(board_length=-0.1)


class TestModule:
    def test_power_from_pcb_or_override(self):
        module = Module("m1", power_override=25.0)
        assert module.power == pytest.approx(25.0)

    def test_module_needs_source_of_power(self):
        with pytest.raises(InputError):
            Module("m1")

    def test_generations_match_paper_trend(self):
        # "from 10 W/module, it will reach 20/30 W ... and 60 W".
        assert module_generation("current").power == pytest.approx(10.0)
        assert module_generation("near_future").power \
            == pytest.approx(30.0)
        assert module_generation("next").power == pytest.approx(60.0)

    def test_unknown_generation(self):
        with pytest.raises(InputError):
            module_generation("retro")

    def test_evaluate_delegates(self):
        module = module_generation("current")
        evaluation = module.evaluate()
        assert evaluation.technique is CoolingTechnique.DIRECT_AIR_FLOW

    def test_flux_increases_across_generations(self):
        # Same envelope, more power: the miniaturisation squeeze.
        assert module_generation("next").mean_flux_w_cm2 \
            > module_generation("current").mean_flux_w_cm2


class TestRack:
    def test_total_power(self):
        rack = computer_rack(6, 20.0)
        assert rack.total_power == pytest.approx(120.0)

    def test_slots_heat_up_downstream(self):
        rack = computer_rack(6, 30.0)
        slots = rack.solve()
        inlets = [slot.inlet_temperature for slot in slots]
        assert inlets[-1] > inlets[0]

    def test_worst_slot_is_last(self):
        rack = computer_rack(6, 30.0)
        worst = rack.worst_slot()
        assert worst.module_name == rack.solve()[-1].module_name

    def test_parallel_feed_equalizes(self):
        rack = computer_rack(6, 30.0)
        rack.series_fraction = 0.0
        slots = rack.solve()
        assert slots[0].inlet_temperature \
            == pytest.approx(slots[-1].inlet_temperature)

    def test_feasibility_flips_with_power(self):
        cool_rack = computer_rack(4, 10.0)
        hot_rack = computer_rack(4, 220.0)
        assert cool_rack.feasible()
        assert not hot_rack.feasible()

    def test_empty_rack_rejected(self):
        with pytest.raises(InputError):
            Rack("empty").solve()

    def test_invalid_series_fraction(self):
        with pytest.raises(InputError):
            Rack("bad", series_fraction=1.5)

    def test_zero_power_module_passthrough(self):
        rack = Rack("r")
        rack.add_module(Module("dead", power_override=0.0))
        rack.add_module(Module("live", power_override=20.0))
        slots = rack.solve()
        assert slots[0].board_temperature \
            == pytest.approx(slots[0].inlet_temperature)
