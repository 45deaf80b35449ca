import math

import numpy as np
import pytest

from sarlrs.errors import ConfigError
from sarlrs.eta import ApertureParams
from sarlrs.imaging import ImagingGrid
from sarlrs.rpca import RpcaConfig
from sarlrs.scenario import (Platform, Pulse, SamplingGrid, Scenario, Target,
                             scenario_from_dict, serialize_scenario)

PULSE = dict(carrier_angular_frequency=2 * np.pi * 2e8, bandwidth_parameter=2 * np.pi * 1e7)
PLATFORM = dict(position=[7100.0, 0.0, 7300.0], velocity=[0.0, 10.0, 0.0], delta_s=0.03,
                pulse_count=101)
VALID = {
    Pulse: PULSE,
    Platform: PLATFORM,
    Target: dict(position=[-9.43, -3.07, 0.0], velocity=[15.0, 0.0, 0.0], reflectivity=1.0),
    SamplingGrid: dict(delta_t=3.75e-10, gate_start=-1e-6, gate_end=1e-6),
    Scenario: dict(pulse=Pulse(**PULSE), platform=Platform(**PLATFORM),
                   reference_point=[0.0, 0.0, 0.0]),
    ApertureParams: dict(aperture_time=1.5, delta_s=0.03, delta_t=3.75e-10,
                         bandwidth_parameter=2 * np.pi * 1e7, velocity=[15.0, 0.0, 0.0],
                         platform_position=[7100.0, 0.0, 7300.0],
                         reference_point=[0.0, 0.0, 0.0]),
}
BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, "1.0"]
BAD_VECTORS = [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf],
               [True, 0.0, 0.0], ["1.0", 0.0, 0.0], [1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]


def _bad_fields():
    """(type, field, value) for every numeric field of VALID's types and every bad value."""
    for cls, valid in VALID.items():
        for name, value in valid.items():
            if isinstance(value, list):
                bad = BAD_VECTORS
            elif isinstance(value, (int, float)):
                bad = BAD_NUMBERS + ([101.0] if name == "pulse_count" else [])
            else:
                continue  # Scenario's pulse and platform check themselves
            for i, x in enumerate(bad):
                yield pytest.param(cls, name, x, id=f"{cls.__name__}-{name}-{i}")


def test_the_valid_values_construct():
    for cls, valid in VALID.items():
        cls(**valid)


@pytest.mark.parametrize("cls, name, value", _bad_fields())
def test_each_scene_value_is_checked_by_its_type(cls, name, value):
    # Pulse(nan, B) synthesized, and Platform(pulse_count=101.0) failed with TypeError
    # inside synthesis, when only the JSON reader checked these values
    with pytest.raises(ConfigError):
        cls(**{**VALID[cls], name: value})


def test_a_type_stores_its_numbers_as_floats():
    # so an integer-valued number serializes as the float it equals, as it does from JSON
    ints = Scenario(Pulse(2, 1), Platform([7100, 0, 7300], [0, 10, 0], 1, np.int64(101)),
                    [0, 0, 0], [Target([1, 2, 0], [0, 0, 0], 2)], SamplingGrid(1, -1, 1))
    floats = Scenario(Pulse(2.0, 1.0), Platform([7100.0, 0.0, 7300.0], [0.0, 10.0, 0.0], 1.0, 101),
                      [0.0, 0.0, 0.0], [Target([1.0, 2.0, 0.0], [0.0, 0.0, 0.0], 2.0)],
                      SamplingGrid(1.0, -1.0, 1.0))
    assert serialize_scenario(ints) == serialize_scenario(floats)
    assert type(ints.platform.pulse_count) is int
    # so do the solver's settings and the imaging grid: a float32 eta kept as it
    # was would round eta / mu to 32 bits in every pass of decompose
    config = RpcaConfig(eta=np.float32(0.5), tol=np.float32(1e-3), max_iter=np.int64(5))
    assert [type(v) for v in (config.eta, config.tol, config.max_iter)] == [float, float, int]
    grid = ImagingGrid([0, 0, 0], np.float32(5), 5, np.int64(3), np.int32(4))
    assert [type(v) for v in (grid.extent_x, grid.extent_y, grid.nx, grid.ny)] == [
        float, float, int, int]


@pytest.mark.parametrize("doc", [[], 1, "pulse", None])
def test_a_scene_document_must_be_an_object(doc):
    # a number at the top of a scene file was reported in a TypeError's words
    # ("argument of type 'int' is not iterable"), an array as a missing 'pulse'
    with pytest.raises(ConfigError, match="scenario JSON must be an object"):
        scenario_from_dict(doc)
