"""Property-based tests (hypothesis) on core solvers and invariants."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avipack.mechanical.isolation import Isolator
from avipack.mechanical.plate import PlateSpec, fundamental_frequency
from avipack.mechanical.random_vibration import PowerSpectralDensity
from avipack.materials.fluids import air_properties, saturation_properties
from avipack.thermal.network import ThermalNetwork
from avipack.tim.models import lewis_nielsen
from avipack.units import celsius_to_kelvin, kelvin_to_celsius

positive = st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False)


class TestUnitsProperties:
    @given(st.floats(min_value=-200.0, max_value=1000.0))
    def test_temperature_roundtrip(self, t_c):
        assert kelvin_to_celsius(celsius_to_kelvin(t_c)) \
            == pytest.approx(t_c, abs=1e-9)


class TestNetworkProperties:
    @given(load=st.floats(min_value=0.0, max_value=500.0),
           resistance=st.floats(min_value=0.01, max_value=100.0),
           sink=st.floats(min_value=200.0, max_value=400.0))
    def test_two_node_exact(self, load, resistance, sink):
        net = ThermalNetwork()
        net.add_node("hot", heat_load=load)
        net.add_node("sink", fixed_temperature=sink)
        net.add_resistance("hot", "sink", resistance)
        sol = net.solve()
        assert sol.temperature("hot") \
            == pytest.approx(sink + load * resistance, rel=1e-9)

    @given(loads=st.lists(st.floats(min_value=0.0, max_value=100.0),
                          min_size=2, max_size=5),
           sink=st.floats(min_value=250.0, max_value=350.0))
    @settings(max_examples=30)
    def test_chain_energy_conservation(self, loads, sink):
        net = ThermalNetwork()
        previous = "sink"
        net.add_node("sink", fixed_temperature=sink)
        for index, load in enumerate(loads):
            name = f"n{index}"
            net.add_node(name, heat_load=load)
            net.add_resistance(name, previous, 0.5 + 0.1 * index)
            previous = name
        sol = net.solve()
        assert sol.residual < 1e-6
        # Heat flowing into the sink equals the sum of all loads.
        total_in = sum(q for label, q in sol.heat_flows.items()
                       if label.endswith("->sink") or "n0->sink" in label)
        assert sol.heat_flows["n0->sink"] == pytest.approx(sum(loads),
                                                           rel=1e-6)

    @given(loads=st.lists(st.floats(min_value=0.1, max_value=100.0),
                          min_size=1, max_size=4))
    @settings(max_examples=30)
    def test_monotone_in_load(self, loads):
        def solve(scale):
            net = ThermalNetwork()
            net.add_node("sink", fixed_temperature=300.0)
            for index, load in enumerate(loads):
                net.add_node(f"n{index}", heat_load=load * scale)
                net.add_resistance(f"n{index}", "sink", 1.0)
            return net.solve()

        base = solve(1.0)
        double = solve(2.0)
        for index in range(len(loads)):
            assert double.temperature(f"n{index}") \
                >= base.temperature(f"n{index}")


class TestEffectiveMediumProperties:
    k_pair = st.tuples(st.floats(min_value=0.05, max_value=2.0),
                       st.floats(min_value=5.0, max_value=500.0))

    @given(k_pair,
           st.floats(min_value=0.01, max_value=0.45),
           st.floats(min_value=0.01, max_value=0.45))
    @settings(max_examples=50)
    def test_lewis_nielsen_monotone(self, ks, phi1, phi2):
        k_m, k_f = ks
        lo, hi = sorted((phi1, phi2))
        assert lewis_nielsen(k_m, k_f, lo, "spheres") \
            <= lewis_nielsen(k_m, k_f, hi, "spheres") + 1e-9


class TestFluidProperties:
    @given(st.floats(min_value=160.0, max_value=900.0))
    def test_air_positive_and_finite(self, temperature):
        state = air_properties(temperature)
        for value in (state.density, state.viscosity, state.conductivity,
                      state.specific_heat, state.prandtl):
            assert value > 0.0
            assert math.isfinite(value)

    @given(st.floats(min_value=285.0, max_value=490.0))
    @settings(max_examples=50)
    def test_water_saturation_consistent(self, temperature):
        state = saturation_properties("water", temperature)
        assert state.pressure > 0.0
        assert state.liquid_density > state.vapor_density
        assert 0.0 < state.surface_tension < 0.1
        assert state.latent_heat > 1e5

    @given(st.floats(min_value=285.0, max_value=480.0),
           st.floats(min_value=285.0, max_value=480.0))
    @settings(max_examples=50)
    def test_water_vapor_pressure_monotone(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assume(hi - lo > 0.5)
        assert saturation_properties("water", hi).pressure \
            > saturation_properties("water", lo).pressure


class TestPsdProperties:
    break_points = st.lists(
        st.tuples(st.floats(min_value=1.0, max_value=3000.0),
                  st.floats(min_value=1e-5, max_value=1.0)),
        min_size=2, max_size=6,
        unique_by=lambda point: round(point[0], 3))

    @given(break_points)
    @settings(max_examples=50)
    def test_rms_positive(self, points):
        points = sorted(points)
        assume(all(p2[0] / p1[0] > 1.01
                   for p1, p2 in zip(points, points[1:])))
        psd = PowerSpectralDensity(tuple(points))
        assert psd.rms_g() > 0.0

    @given(break_points, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_scaling_law(self, points, factor):
        points = sorted(points)
        assume(all(p2[0] / p1[0] > 1.01
                   for p1, p2 in zip(points, points[1:])))
        psd = PowerSpectralDensity(tuple(points))
        assert psd.scaled(factor).rms_g() \
            == pytest.approx(math.sqrt(factor) * psd.rms_g(), rel=1e-6)


class TestIsolatorProperties:
    @given(st.floats(min_value=5.0, max_value=100.0),
           st.floats(min_value=0.02, max_value=0.5),
           st.floats(min_value=1.0, max_value=2000.0))
    @settings(max_examples=100)
    def test_transmissibility_positive(self, f_n, zeta, f):
        assert Isolator(f_n, zeta).transmissibility(f) > 0.0

    @given(st.floats(min_value=5.0, max_value=100.0),
           st.floats(min_value=0.02, max_value=0.5))
    def test_high_frequency_always_isolates(self, f_n, zeta):
        iso = Isolator(f_n, zeta)
        assert iso.transmissibility(50.0 * f_n) < 1.0


class TestPlateProperties:
    @given(st.floats(min_value=0.05, max_value=0.5),
           st.floats(min_value=0.05, max_value=0.5),
           st.floats(min_value=0.5e-3, max_value=5e-3))
    @settings(max_examples=50)
    def test_frequency_positive_and_scales(self, length, width, thickness):
        plate = PlateSpec(length, width, thickness, 22e9, 0.28, 1850.0)
        f_1 = fundamental_frequency(plate)
        assert f_1 > 0.0
        # Doubling the thickness doubles every frequency (D ~ h^3, m ~ h).
        from dataclasses import replace

        doubled = replace(plate, thickness=2.0 * thickness)
        assert fundamental_frequency(doubled) \
            == pytest.approx(2.0 * f_1, rel=1e-6)
