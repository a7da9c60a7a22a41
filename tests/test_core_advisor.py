"""Tests for the design-closure advisor."""

import pytest

from avipack.core.advisor import (
    DesignMove,
    advise,
    advise_cooling_escalation,
    junction_drop_for_mtbf,
)
from avipack.core.design_flow import (
    FrequencyAllocation,
    PackagingSpecification,
    run_design_procedure,
)
from avipack.errors import InputError
from avipack.packaging.component import make_component
from avipack.packaging.module import Module
from avipack.packaging.pcb import Pcb
from avipack.packaging.rack import Rack
from avipack.reliability.mtbf import PartReliability


def build_rack(power=6.0):
    rack = Rack("advised_rack")
    board = Pcb(0.16, 0.1, n_copper_layers=8, copper_coverage=0.7)
    board.place(make_component("u1", "bga_35mm", power * 0.6,
                               (0.08, 0.05)))
    board.place(make_component("u2", "to_220", power * 0.4,
                               (0.04, 0.03)))
    rack.add_module(Module("m1", pcb=board))
    return rack


class TestCoolingEscalation:
    def test_hotspot_case_escalates_to_two_phase(self):
        move = advise_cooling_escalation(120.0, 40.0)
        assert "heat_pipe" in move.action or "thermosyphon" in move.action
        assert move.intrusiveness >= 3

    def test_mild_case_stays_simple(self):
        move = advise_cooling_escalation(15.0, 1.0)
        assert move.intrusiveness <= 2


class TestJunctionDrop:
    def test_zero_when_target_met(self):
        assert junction_drop_for_mtbf(50_000.0, 40_000.0, 370.0) == 0.0

    def test_positive_drop_for_gap(self):
        drop = junction_drop_for_mtbf(20_000.0, 40_000.0, 370.0)
        assert drop > 0.0

    def test_drop_closes_the_gap(self):
        # Verify against the forward Arrhenius model.
        import math

        from avipack.units import BOLTZMANN_EV

        t_j = 380.0
        drop = junction_drop_for_mtbf(20_000.0, 40_000.0, t_j,
                                      activation_energy_ev=0.45)
        accel = math.exp(0.45 / BOLTZMANN_EV
                         * (1.0 / (t_j - drop) - 1.0 / t_j))
        assert 1.0 / accel == pytest.approx(0.5, rel=1e-6)

    def test_bigger_gap_bigger_drop(self):
        small = junction_drop_for_mtbf(30_000.0, 40_000.0, 370.0)
        large = junction_drop_for_mtbf(10_000.0, 40_000.0, 370.0)
        assert large > small

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            junction_drop_for_mtbf(-1.0, 40_000.0, 370.0)


class TestFullAdvise:
    def test_compliant_review_no_moves(self):
        review = run_design_procedure(build_rack(6.0),
                                      PackagingSpecification("ok"))
        assert advise(review) == []

    def test_frequency_violation_gets_mechanical_move(self):
        spec = PackagingSpecification(
            "freq", frequency_allocation=FrequencyAllocation(2000.0,
                                                             3000.0))
        review = run_design_procedure(build_rack(6.0), spec)
        moves = advise(review)
        assert any(move.category == "mechanical" for move in moves)

    def test_thermal_violation_gets_escalation(self):
        review = run_design_procedure(build_rack(120.0),
                                      PackagingSpecification("hot"))
        moves = advise(review, module_power=120.0, peak_flux_w_cm2=12.0)
        assert any(move.category == "thermal" for move in moves)

    def test_mtbf_violation_quantifies_junction_drop(self):
        parts = [PartReliability("u1", 3000.0, 0.5),
                 PartReliability("u2", 2000.0)]
        review = run_design_procedure(build_rack(8.0),
                                      PackagingSpecification("rel"),
                                      parts=parts)
        if review.compliant:
            pytest.skip("fixture unexpectedly compliant")
        moves = advise(review)
        reliability_moves = [m for m in moves
                             if m.category == "reliability"]
        assert reliability_moves
        assert reliability_moves[0].value > 0.0

    def test_moves_sorted_by_intrusiveness(self):
        review = run_design_procedure(build_rack(120.0),
                                      PackagingSpecification("multi"))
        moves = advise(review, module_power=120.0)
        levels = [move.intrusiveness for move in moves]
        assert levels == sorted(levels)

    def test_invalid_move_construction(self):
        with pytest.raises(InputError):
            DesignMove("x", "y", "z", 1.0, intrusiveness=9)
