"""Failure-injection tests: the models must degrade the way hardware does.

A credible co-design tool is defined as much by how it fails as by how
it succeeds: an overloaded heat pipe must dry out, a dried LHP must
collapse its conductance inside the network rather than silently keep
cooling.
"""

import pytest

from avipack.errors import OperatingLimitError
from avipack.packaging.seb import SebConfiguration
from avipack.thermal.network import ThermalNetwork
from avipack.twophase.heatpipe import standard_copper_water_heatpipe


class TestDeviceFailureModes:
    def test_heatpipe_dryout_at_full_adverse_tilt(self):
        pipe = standard_copper_water_heatpipe(length=1.0, tilt_deg=90.0)
        assert pipe.capillary_limit(333.15) == 0.0
        with pytest.raises(OperatingLimitError):
            pipe.temperature_drop(5.0, 333.15)

    def test_heatpipe_frozen_fluid_out_of_range(self):
        from avipack.errors import ModelRangeError

        pipe = standard_copper_water_heatpipe()
        with pytest.raises(ModelRangeError):
            pipe.thermal_resistance(250.0)  # water frozen

    def test_lhp_overload_names_the_limit(self, cosee_lhp):
        with pytest.raises(OperatingLimitError) as excinfo:
            cosee_lhp.temperature_drop(5000.0, 320.0)
        assert excinfo.value.limit_value > 0.0

    def test_lhp_network_conductance_collapse_on_overtemperature(
            self, cosee_lhp):
        g = cosee_lhp.network_conductance(power_hint=30.0)
        healthy = g(320.0, 300.0)
        dead = g(700.0, 300.0)  # far beyond ammonia validity
        assert dead < 0.01 * healthy


class TestSebFailureModes:
    def test_seb_heat_pipes_overload_at_absurd_power(self, seb, seb_lhp):
        with pytest.raises(OperatingLimitError):
            seb.build_network(600.0, seb_lhp)

    def test_max_power_search_survives_device_limits(self, seb):
        # The capability search must treat device overloads as
        # infeasible points, not crash.
        config = SebConfiguration(cooling="hp_lhp")
        capability = seb.max_power_for_delta_t(60.0, config,
                                               power_ceiling=1000.0)
        assert 50.0 < capability < 300.0

    def test_natural_configuration_runs_away_thermally(self, seb,
                                                       seb_natural):
        # No LHPs: power beyond ~60 W drives the PCB into runaway
        # territory - the solver still converges and reports it honestly.
        solution = seb.solve(150.0, seb_natural)
        assert solution.delta_t_pcb_air > 150.0


class TestNetworkRobustness:
    def test_two_islands_with_own_sinks_solve(self):
        net = ThermalNetwork()
        net.add_node("a", heat_load=5.0)
        net.add_node("sink_a", fixed_temperature=300.0)
        net.add_node("b", heat_load=3.0)
        net.add_node("sink_b", fixed_temperature=320.0)
        net.add_resistance("a", "sink_a", 1.0)
        net.add_resistance("b", "sink_b", 2.0)
        sol = net.solve()
        assert sol.temperature("a") == pytest.approx(305.0)
        assert sol.temperature("b") == pytest.approx(326.0)

    def test_duplicate_labels_disambiguated(self):
        net = ThermalNetwork()
        net.add_node("hot", heat_load=10.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_resistance("hot", "sink", 2.0, label="path")
        net.add_resistance("hot", "sink", 2.0, label="path")
        sol = net.solve()
        assert len(sol.heat_flows) == 2
        assert sum(sol.heat_flows.values()) == pytest.approx(10.0)

    def test_extreme_conductance_ratio_still_converges(self):
        # 1e9 conductance ratio: stiff but solvable.
        net = ThermalNetwork()
        net.add_node("chip", heat_load=10.0)
        net.add_node("spreader")
        net.add_node("ambient", fixed_temperature=300.0)
        net.add_conductance("chip", "spreader", 1e6)
        net.add_conductance("spreader", "ambient", 1e-3)
        sol = net.solve()
        assert sol.residual < 1e-6
        assert sol.temperature("chip") \
            == pytest.approx(300.0 + 10.0 / 1e-3, rel=1e-6)

    def test_zero_power_network_isothermal(self, seb, seb_lhp):
        solution = seb.solve(0.0, seb_lhp)
        temps = solution.network.temperatures
        spread = max(temps.values()) - min(temps.values())
        assert spread < 0.5
