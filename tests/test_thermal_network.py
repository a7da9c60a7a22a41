"""Tests for the thermal resistance network solver."""

import pytest

from avipack.errors import InputError
from avipack.thermal.network import (
    ThermalNetwork,
    spreading_resistance,
)


def two_node_network(load=10.0, resistance=2.0, sink=300.0):
    net = ThermalNetwork()
    net.add_node("hot", heat_load=load)
    net.add_node("sink", fixed_temperature=sink)
    net.add_resistance("hot", "sink", resistance)
    return net


class TestBasicSolve:
    def test_single_resistor(self):
        sol = two_node_network().solve()
        assert sol.temperature("hot") == pytest.approx(320.0)

    def test_heat_flow_reported(self):
        sol = two_node_network().solve()
        assert sol.heat_flows["hot->sink"] == pytest.approx(10.0)

    def test_delta(self):
        sol = two_node_network().solve()
        assert sol.delta("hot", "sink") == pytest.approx(20.0)

    def test_series_chain(self):
        net = ThermalNetwork()
        net.add_node("a", heat_load=5.0)
        net.add_node("b")
        net.add_node("sink", fixed_temperature=300.0)
        net.add_resistance("a", "b", 1.0)
        net.add_resistance("b", "sink", 3.0)
        sol = net.solve()
        assert sol.temperature("a") == pytest.approx(300.0 + 5.0 * 4.0)
        assert sol.temperature("b") == pytest.approx(300.0 + 5.0 * 3.0)

    def test_parallel_paths_split_heat(self):
        net = ThermalNetwork()
        net.add_node("hot", heat_load=9.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_resistance("hot", "sink", 1.0, label="r1")
        net.add_resistance("hot", "sink", 2.0, label="r2")
        sol = net.solve()
        assert sol.heat_flows["r1"] == pytest.approx(6.0)
        assert sol.heat_flows["r2"] == pytest.approx(3.0)

    def test_energy_conserved(self):
        net = ThermalNetwork()
        net.add_node("a", heat_load=7.0)
        net.add_node("b", heat_load=3.0)
        net.add_node("sink", fixed_temperature=290.0)
        net.add_resistance("a", "b", 0.5)
        net.add_resistance("a", "sink", 2.0)
        net.add_resistance("b", "sink", 1.0)
        sol = net.solve()
        assert sol.residual < 1e-9

    def test_multiple_sinks(self):
        net = ThermalNetwork()
        net.add_node("mid", heat_load=10.0)
        net.add_node("cold", fixed_temperature=280.0)
        net.add_node("hot_wall", fixed_temperature=320.0)
        net.add_resistance("mid", "cold", 1.0)
        net.add_resistance("mid", "hot_wall", 1.0)
        sol = net.solve()
        # Symmetric: midpoint of walls plus Q*(R parallel).
        assert sol.temperature("mid") == pytest.approx(300.0 + 10.0 * 0.5)

    def test_zero_load_equilibrates_to_sink(self):
        net = ThermalNetwork()
        net.add_node("float")
        net.add_node("sink", fixed_temperature=333.0)
        net.add_resistance("float", "sink", 5.0)
        assert net.solve().temperature("float") == pytest.approx(333.0)


class TestNonlinear:
    def test_temperature_dependent_conductance(self):
        # g = 0.01*(T_hot + T_cold): solve and verify the balance by hand.
        net = ThermalNetwork()
        net.add_node("hot", heat_load=50.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_conductance("hot", "sink",
                            lambda ta, tb: 0.01 * (ta + tb))
        sol = net.solve()
        t = sol.temperature("hot")
        g = 0.01 * (t + 300.0)
        assert g * (t - 300.0) == pytest.approx(50.0, rel=1e-4)

    def test_radiation_like_link(self):
        sigma_a = 5.67e-8 * 0.01

        def g(t1, t2):
            return sigma_a * (t1 ** 2 + t2 ** 2) * (t1 + t2)

        net = ThermalNetwork()
        net.add_node("hot", heat_load=20.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_conductance("hot", "sink", g)
        t = net.solve().temperature("hot")
        assert sigma_a * (t ** 4 - 300.0 ** 4) == pytest.approx(20.0,
                                                                rel=1e-3)

    def test_negative_conductance_callable_rejected(self):
        net = ThermalNetwork()
        net.add_node("hot", heat_load=1.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_conductance("hot", "sink", lambda a, b: -1.0)
        with pytest.raises(InputError):
            net.solve()


class TestValidation:
    def test_no_nodes(self):
        with pytest.raises(InputError):
            ThermalNetwork().solve()

    def test_no_sink(self):
        net = ThermalNetwork()
        net.add_node("a", heat_load=1.0)
        net.add_node("b")
        net.add_resistance("a", "b", 1.0)
        with pytest.raises(InputError):
            net.solve()

    def test_duplicate_node(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(InputError):
            net.add_node("a")

    def test_self_link(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(InputError):
            net.add_conductance("a", "a", 1.0)

    def test_unknown_node_link(self):
        net = ThermalNetwork()
        net.add_node("a")
        with pytest.raises(InputError):
            net.add_resistance("a", "ghost", 1.0)

    def test_negative_resistance(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("b")
        with pytest.raises(InputError):
            net.add_resistance("a", "b", -1.0)

    def test_load_on_fixed_node_rejected(self):
        net = ThermalNetwork()
        net.add_node("sink", fixed_temperature=300.0)
        with pytest.raises(InputError):
            net.add_heat_load("sink", 5.0)

    def test_accumulating_load(self):
        net = two_node_network(load=5.0)
        net.add_heat_load("hot", 5.0)
        assert net.solve().temperature("hot") == pytest.approx(320.0)

    def test_unknown_solution_node(self):
        sol = two_node_network().solve()
        with pytest.raises(InputError):
            sol.temperature("ghost")

    def test_floating_island_rejected_by_name(self):
        net = two_node_network()
        net.add_node("adrift", heat_load=1.0)
        with pytest.raises(InputError, match="adrift"):
            net.solve()


class TestCompiledCore:
    """The compiled structure must be invisible except for speed."""

    def test_nonlinear_reference_solution(self):
        # Hard-coded values captured from the pre-compiled per-link-loop
        # implementation; the compiled path must reproduce them.
        net = ThermalNetwork()
        net.add_node("sink", fixed_temperature=300.0)
        for i in range(20):
            net.add_node(f"n{i}", heat_load=5.0)
            net.add_conductance(
                f"n{i}", "sink",
                lambda a, b: 1e-9 * (a * a + b * b) * (a + b))
        sol = net.solve()
        assert sol.iterations == 14
        assert sol.temperature("n0") == pytest.approx(338.31232821523025,
                                                      rel=1e-13)
        assert sol.residual < 1e-8

    def test_mutation_after_solve_recompiles(self):
        net = two_node_network(load=10.0, resistance=2.0)
        assert net.solve().temperature("hot") == pytest.approx(320.0)
        net.add_node("extra", heat_load=5.0)
        net.add_resistance("extra", "sink", 4.0)
        sol = net.solve()
        assert sol.temperature("hot") == pytest.approx(320.0)
        assert sol.temperature("extra") == pytest.approx(320.0)
        net.add_heat_load("hot", 10.0)
        assert net.solve().temperature("hot") == pytest.approx(340.0)

    def test_duplicate_flow_labels_disambiguated(self):
        net = ThermalNetwork()
        net.add_node("hot", heat_load=6.0)
        net.add_node("sink", fixed_temperature=300.0)
        net.add_resistance("hot", "sink", 1.0, label="tim")
        net.add_resistance("hot", "sink", 1.0, label="tim")
        net.add_resistance("hot", "sink", 1.0)
        flows = net.solve().heat_flows
        assert set(flows) == {"tim", "tim#1", "hot->sink"}
        assert sum(flows.values()) == pytest.approx(6.0)

    def test_warm_start_and_convergence_error_iterate(self):
        from avipack.errors import ConvergenceError
        net = ThermalNetwork()
        net.add_node("sink", fixed_temperature=300.0)
        net.add_node("hot", heat_load=50.0)
        net.add_conductance("hot", "sink",
                            lambda a, b: 1e-8 * (a * a + b * b) * (a + b))
        with pytest.raises(ConvergenceError) as excinfo:
            net.solve(max_iterations=3)
        iterate = excinfo.value.last_iterate
        assert set(iterate) == {"sink", "hot"}
        # The carried iterate warm-starts a successful retry.
        sol = net.solve(initial_temperatures=iterate)
        assert sol.residual < 1e-4

    def test_solution_identical_before_and_after_pickle_roundtrip(self):
        import pickle
        net = two_node_network()
        before = net.solve().temperatures
        clone = pickle.loads(pickle.dumps(net))
        assert clone.solve().temperatures == before


class TestResistanceHelpers:

    def test_spreading_resistance_positive(self):
        r = spreading_resistance(2e-3, 20e-3, 2e-3, 167.0)
        assert r > 0.0

    def test_spreading_shrinks_with_bigger_source(self):
        small = spreading_resistance(1e-3, 20e-3, 2e-3, 167.0)
        large = spreading_resistance(10e-3, 20e-3, 2e-3, 167.0)
        assert large < small

    def test_spreading_invalid_radii(self):
        with pytest.raises(InputError):
            spreading_resistance(30e-3, 20e-3, 2e-3, 167.0)
