"""Shared fixtures for the avipack test suite."""

import shutil
import tempfile

import pytest
from hypothesis import settings

from avipack.packaging.seb import (
    SeatElectronicsBox,
    SebConfiguration,
    carbon_composite_seat_structure,
)
from avipack.mechanical.random_vibration import PowerSpectralDensity
from avipack.twophase.heatpipe import standard_copper_water_heatpipe
from avipack.twophase.loopheatpipe import cosee_ammonia_lhp
from avipack.resilience import faults

#: The route matrix's long search (CI: ``--hypothesis-profile=...``);
#: the tier-1 run uses Hypothesis's default profile.
settings.register_profile("route-matrix-long", max_examples=500)


@pytest.fixture(autouse=True)
def _no_fault_plan():
    """No test starts or ends with a fault plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="session")
def seb():
    """The default COSEE seat electronics box."""
    return SeatElectronicsBox()


@pytest.fixture(scope="session")
def seb_natural():
    return SebConfiguration(cooling="natural")


@pytest.fixture(scope="session")
def seb_lhp():
    return SebConfiguration(cooling="hp_lhp")


@pytest.fixture(scope="session")
def seb_tilted():
    return SebConfiguration(cooling="hp_lhp", tilt_deg=22.0)


@pytest.fixture(scope="session")
def seb_carbon():
    return SebConfiguration(cooling="hp_lhp",
                            structure=carbon_composite_seat_structure())


@pytest.fixture(scope="session")
def copper_water_hp():
    return standard_copper_water_heatpipe()


@pytest.fixture(scope="session")
def cosee_lhp():
    return cosee_ammonia_lhp()


@pytest.fixture()
def sockets():
    """A short /tmp directory for service sockets: AF_UNIX paths are
    capped around 108 bytes, which pytest tmp paths can exceed."""
    sock_dir = tempfile.mkdtemp(prefix="avisvc", dir="/tmp")
    yield sock_dir
    shutil.rmtree(sock_dir, ignore_errors=True)


@pytest.fixture
def flat_psd():
    """A flat 0.01 g²/Hz PSD from 10 to 2000 Hz."""
    return PowerSpectralDensity(((10.0, 0.01), (2000.0, 0.01)))
