"""Tests for plate modal analysis against closed-form results."""

import math
from dataclasses import replace

import pytest

from avipack.errors import InputError
from avipack.mechanical.plate import (
    PlateSpec,
    fundamental_frequency,
    plate_modes,
    stiffener_rigidity_for_frequency,
)


@pytest.fixture
def fr4_board():
    return PlateSpec(length=0.17, width=0.13, thickness=1.6e-3,
                     youngs_modulus=22e9, poisson_ratio=0.28,
                     density=1850.0)


@pytest.fixture
def steel_plate():
    return PlateSpec(length=0.4, width=0.3, thickness=2e-3,
                     youngs_modulus=200e9, poisson_ratio=0.3,
                     density=7850.0)


class TestExactSsss:
    def test_matches_navier_solution(self, steel_plate):
        # SSSS plate: f_mn = (pi/2) sqrt(D/rho h) (m2/a2 + n2/b2).
        d = steel_plate.flexural_rigidity
        rho_h = steel_plate.surface_density
        f_exact = (math.pi / 2.0) * math.sqrt(d / rho_h) * (
            1.0 / 0.4 ** 2 + 1.0 / 0.3 ** 2)
        assert fundamental_frequency(steel_plate) \
            == pytest.approx(f_exact, rel=1e-6)

    def test_mode_ordering(self, steel_plate):
        modes = plate_modes(steel_plate, 6)
        freqs = [m.frequency_hz for m in modes]
        assert freqs == sorted(freqs)
        assert modes[0].indices == (1, 1)

    def test_second_mode_along_long_edge(self, steel_plate):
        modes = plate_modes(steel_plate, 2)
        assert modes[1].indices == (2, 1)


class TestParameterEffects:
    def test_thicker_is_stiffer(self, fr4_board):
        thick = replace(fr4_board, thickness=3.2e-3)
        assert fundamental_frequency(thick) \
            == pytest.approx(2.0 * fundamental_frequency(fr4_board),
                             rel=0.01)

    def test_component_mass_lowers_frequency(self, fr4_board):
        loaded = replace(fr4_board, component_mass=0.2)
        assert fundamental_frequency(loaded) \
            < fundamental_frequency(fr4_board)

    def test_clamping_raises_frequency(self, fr4_board):
        clamped = replace(fr4_board, support=("CC", "CC"))
        assert fundamental_frequency(clamped) \
            > 1.5 * fundamental_frequency(fr4_board)

    def test_stiffener_raises_frequency(self, fr4_board):
        stiffened = replace(fr4_board, stiffener_rigidity=50.0)
        assert fundamental_frequency(stiffened) \
            > fundamental_frequency(fr4_board)

    def test_cantilever_is_softest(self, fr4_board):
        cantilever = replace(fr4_board, support=("CF", "FF"))
        assert fundamental_frequency(cantilever) \
            < fundamental_frequency(fr4_board)


class TestDesignHelpers:

    def test_stiffener_for_frequency(self, fr4_board):
        rigidity = stiffener_rigidity_for_frequency(fr4_board, 500.0)
        placed = replace(fr4_board, stiffener_rigidity=rigidity)
        assert fundamental_frequency(placed) == pytest.approx(500.0,
                                                              rel=0.01)

    def test_stiffener_zero_when_already_stiff(self, steel_plate):
        assert stiffener_rigidity_for_frequency(steel_plate, 10.0) == 0.0


class TestValidation:
    def test_invalid_support(self):
        with pytest.raises(InputError):
            PlateSpec(0.1, 0.1, 1e-3, 22e9, 0.28, 1850.0,
                      support=("XX", "SS"))

    def test_invalid_dimensions(self):
        with pytest.raises(InputError):
            PlateSpec(-0.1, 0.1, 1e-3, 22e9, 0.28, 1850.0)

    def test_negative_component_mass(self):
        with pytest.raises(InputError):
            PlateSpec(0.1, 0.1, 1e-3, 22e9, 0.28, 1850.0,
                      component_mass=-0.1)

    def test_zero_modes_requested(self, fr4_board):
        with pytest.raises(InputError):
            plate_modes(fr4_board, 0)

    def test_total_mass(self, fr4_board):
        bare = fr4_board.length * fr4_board.width * fr4_board.thickness \
            * fr4_board.density
        assert fr4_board.total_mass == pytest.approx(bare)
