import numpy as np
import pytest
from importlib import resources

from sarlrs.scenario import (Pulse, Platform, Target, SamplingGrid, Scenario,
                             load_scenario)


def make_scenario(targets=(), n=100, ds=0.03, platform_velocity=(0.0, 10.0, 0.0),
                  carrier_hz=2e8, bandwidth_hz=1e7, dt=3.75e-10):
    """Small test scene: omega_0/B = 20, B*dt = 0.0236, platform at 10.2 km."""
    return Scenario(
        pulse=Pulse(2 * np.pi * carrier_hz, 2 * np.pi * bandwidth_hz),
        platform=Platform([7100.0, 0.0, 7300.0], list(platform_velocity), ds, n + 1),
        reference_point=[0.0, 0.0, 0.0],
        targets=targets,
        sampling=SamplingGrid(dt),
    )


# the shipped `scaled` scene's carrier (Hz) and fast-time step dt (s), changed so
# that its band -omega_0 +- 6B reaches an edge of (-pi/dt, 0), and the edge named:
# omega_0 / B = 5 and 3 reach 0, (omega_0 + 6B) dt = 1.15 pi (with omega_0 dt =
# 0.885 pi) and omega_0 dt = 1.2 pi reach -pi/dt
ALIASED_BANDS = {"w0-5B": (5e7, 3.75e-10, "0"), "w0-3B": (3e7, 3.75e-10, "0"),
                 "band-1.15pi": (2e8, 0.575 / 2.6e8, "-pi/dt"),
                 "carrier-1.2pi": (2e8, 3e-9, "-pi/dt")}


def with_band(sc, carrier_hz, dt):
    """sc with its carrier and fast-time step replaced, its B and gate kept."""
    from dataclasses import replace
    return replace(sc, pulse=Pulse(2 * np.pi * carrier_hz, sc.pulse.bandwidth_parameter),
                   sampling=replace(sc.sampling, delta_t=dt))


def stationary_target(position=(-9.43, -3.07, 0.0), reflectivity=1.0):
    return Target(list(position), [0.0, 0.0, 0.0], reflectivity)


def moving_target(speed=15.0, position=(-9.43, -3.07, 0.0), reflectivity=1.0,
                  direction=(1.0, 0.0, 0.0)):
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    return Target(list(position), list(speed * d), reflectivity)


@pytest.fixture(scope="session")
def scaled_scenario():
    """The shipped five-stationary-plus-one-mover demo scene."""
    with resources.as_file(resources.files("sarlrs").joinpath("data/scaled.json")) as p:
        return load_scenario(p)


@pytest.fixture(scope="session")
def imaging_scenario(scaled_scenario):
    """Same scene with a fast platform, for well-focused imaging."""
    from dataclasses import replace
    return replace(scaled_scenario,
                   platform=Platform([7100.0, 0.0, 7300.0], [0.0, 300.0, 0.0],
                                     0.03, 101))


@pytest.fixture(scope="session")
def single_mover_scenario():
    return make_scenario([moving_target(15.0)])


@pytest.fixture(scope="session")
def single_stationary_scenario():
    return make_scenario([stationary_target()])
