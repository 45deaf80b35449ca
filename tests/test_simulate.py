import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from sarlrs import simulate
from sarlrs.errors import GateTooNarrow
from sarlrs.scenario import C_LIGHT, Platform, SamplingGrid, Target, load_scenario
from sarlrs.simulate import (ENVELOPE_ZERO, column_support, delta_tau,
                             fast_time_gate, fast_times,
                             synthesize_baseband_direct, synthesize_downramped,
                             travel_time)

from conftest import make_scenario, moving_target, stationary_target


def shipped(regime):
    with resources.as_file(resources.files("sarlrs").joinpath(f"data/{regime}.json")) as p:
        return load_scenario(p)


def pinned(sc):
    """The scene with its auto gate made explicit, as separation_metrics pins it."""
    return replace(sc, sampling=SamplingGrid(sc.sampling.delta_t, *fast_time_gate(sc)))


def window_columns(sc):
    """Columns per row that band-limited synthesis evaluates for each target."""
    B = sc.pulse.bandwidth_parameter
    return math.ceil(2.0 * ENVELOPE_ZERO / (B * sc.sampling.delta_t)) + 3


def dense_synthesize(scenario, dtype, carrier):
    """Reference: every target's envelope evaluated on the whole fast-time grid."""
    t = fast_times(scenario)
    M = np.zeros((scenario.platform.pulse_count, t.size), dtype=dtype)
    if not scenario.targets:
        return M
    delays = simulate._all_delays(scenario)
    simulate._check_gate(scenario, delays, t)
    w0 = scenario.pulse.carrier_angular_frequency
    B = scenario.pulse.bandwidth_parameter
    for tgt, dtau in zip(scenario.targets, delays):
        arg = t[None, :] - dtau[:, None]
        M += tgt.reflectivity * (carrier(w0, arg, dtau) * np.exp(-B * B * arg * arg / 2.0))
    return M


def dense_downramped(sc):
    return dense_synthesize(sc, float, lambda w0, arg, dtau: np.cos(w0 * arg))


def dense_baseband(sc):
    return dense_synthesize(sc, complex, lambda w0, arg, dtau: np.exp(1j * w0 * dtau)[:, None])


def _edge_clipped():
    # two targets 300 m apart: the gate is wider than a window, and
    # each target's window runs past one edge of the gate and is clipped there
    sc = make_scenario([stationary_target((-150.0, 0.0, 0.0)),
                        moving_target(12.0, (150.0, 3.0, 0.0))], n=20)
    assert window_columns(sc) < fast_times(sc).size
    return sc


def _wider_than_gate():
    sc = make_scenario([stationary_target()], n=20)
    assert window_columns(sc) >= fast_times(sc).size
    return sc


ORACLE_SCENES = {
    "scaled": lambda: shipped("scaled"),
    "gotcha": lambda: shipped("gotcha"),
    "gotcha-moving-pinned": lambda: pinned(shipped("gotcha")).moving_only(),
    "gotcha-stationary-pinned": lambda: pinned(shipped("gotcha")).stationary_only(),
    "edge-clipped": _edge_clipped,
    "wider-than-gate": _wider_than_gate,
    "empty": lambda: make_scenario([]),
}


@pytest.mark.parametrize("name", ORACLE_SCENES)
def test_band_limited_synthesis_is_byte_identical_to_dense(name):
    sc = ORACLE_SCENES[name]()
    for fast, dense in ((synthesize_downramped, dense_downramped),
                        (synthesize_baseband_direct, dense_baseband)):
        got, ref = fast(sc), dense(sc)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_gotcha_synthesis_evaluates_only_the_envelope_windows(monkeypatch):
    sc = shipped("gotcha")
    rows, cols = sc.platform.pulse_count, fast_times(sc).size
    width = window_columns(sc)
    assert width < cols
    evaluated = []
    exp = np.exp
    monkeypatch.setattr(np, "exp",
                        lambda x, *a, **k: evaluated.append(np.size(x)) or exp(x, *a, **k))
    synthesize_downramped(sc)
    # a dense evaluation would be len(targets) * rows * cols = 6 * 237 * 32000
    assert sum(evaluated) <= len(sc.targets) * rows * width


def delay_reference(sc, points, s):
    """differential_delay through np.linalg.norm, as it was first written."""
    r = sc.platform.position_at(s)
    return 2.0 * (np.linalg.norm(r - points, axis=-1)
                  - np.linalg.norm(r - sc.reference_point, axis=-1)) / C_LIGHT


def travel_time_reference(sc, s, point):
    # axis=-1 sums the squares; without it, norm takes BLAS's dot of a vector
    r = sc.platform.position_at(s)
    return 2.0 * float(np.linalg.norm(r - np.asarray(point, dtype=float), axis=-1)) / C_LIGHT


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("shape", [(3,), (50, 3), (4, 50, 3)])
def test_distance_kernel_is_byte_equal_to_norm(shape, scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 10 * len(shape))
    base = make_scenario()
    sc = replace(base, reference_point=rng.standard_normal(3) * scale,
                 platform=Platform(rng.standard_normal(3) * scale,
                                   rng.standard_normal(3) * scale, base.platform.delta_s,
                                   base.platform.pulse_count))
    points = rng.standard_normal(shape) * scale
    # a view with reversed columns of a contiguous copy: negative strides
    reversed_view = np.ascontiguousarray(points[..., ::-1])[..., ::-1]
    assert not reversed_view.flags.c_contiguous
    # one slow time for all points, or one per leading block of points
    s = rng.uniform(-1.0, 1.0, size=(shape[0], 1) if len(shape) == 3 else ())
    for p in (points, reversed_view):
        got = simulate.differential_delay(sc, p, s)
        assert got.tobytes() == delay_reference(sc, p, s).tobytes()
    # one point per slow time
    per_pulse = rng.uniform(-1.0, 1.0, size=shape[:-1])
    assert (simulate.differential_delay(sc, points, per_pulse).tobytes()
            == delay_reference(sc, points, per_pulse).tobytes())
    for point in points.reshape(-1, 3)[:5]:
        assert travel_time(sc, 0.25, point) == travel_time_reference(sc, 0.25, point)
        assert travel_time(sc, 0.25, list(point)) == travel_time_reference(sc, 0.25, point)


def test_travel_time_coincident_point_is_zero():
    sc = make_scenario()
    r0 = sc.platform.position
    assert travel_time(sc, 0.0, r0) == 0.0


def test_travel_time_reference_point_value():
    sc = make_scenario()
    expected = 2.0 * np.linalg.norm([7100.0, 0.0, 7300.0]) / C_LIGHT
    assert travel_time(sc, 0.0, [0.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-15)


def test_travel_time_translation_invariance():
    sc = make_scenario()
    shift = np.array([123.0, -45.0, 6.0])
    from dataclasses import replace
    from sarlrs.scenario import Platform
    sc2 = make_scenario()
    sc2 = replace(sc2, platform=Platform(sc.platform.position + shift,
                                         sc.platform.velocity, sc.platform.delta_s,
                                         sc.platform.pulse_count))
    p = np.array([10.0, 20.0, 0.0])
    assert travel_time(sc, 1.5, p) == pytest.approx(travel_time(sc2, 1.5, p + shift),
                                                    rel=1e-14)


def test_delta_tau_zero_at_reference():
    sc = make_scenario()
    tgt = Target([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    s = sc.slow_times()
    assert np.allclose(delta_tau(sc, tgt, s), 0.0)


def test_delta_tau_matches_brute_force():
    sc = make_scenario()
    tgt = moving_target(12.0, position=(5.0, -7.0, 0.0))
    for s in (-0.3, 0.0, 0.45):
        r = sc.platform.position + sc.platform.velocity * s
        rho = np.array(tgt.position) + np.array(tgt.velocity) * s
        expected = 2.0 / C_LIGHT * (np.linalg.norm(r - rho) - np.linalg.norm(r))
        assert delta_tau(sc, tgt, s) == pytest.approx(expected, rel=1e-14)


def test_delta_tau_sign_flips_for_near_target():
    sc = make_scenario()
    near = Target([3000.0, 0.0, 3000.0], [0.0, 0.0, 0.0])  # closer than rho_o
    far = Target([-100.0, -100.0, 0.0], [0.0, 0.0, 0.0])
    assert delta_tau(sc, near, 0.0) < 0
    assert delta_tau(sc, far, 0.0) > 0


def test_empty_scene_is_zero_matrix():
    sc = make_scenario([])
    assert not np.any(synthesize_downramped(sc))
    assert not np.any(synthesize_baseband_direct(sc))


def test_single_row_is_modulated_gaussian():
    sc = make_scenario([stationary_target()], n=2)
    D = synthesize_downramped(sc)
    t = fast_times(sc)
    dtau = delta_tau(sc, sc.targets[0], 0.0)
    w0 = sc.pulse.carrier_angular_frequency
    B = sc.pulse.bandwidth_parameter
    expected = np.cos(w0 * (t - dtau)) * np.exp(-B**2 * (t - dtau) ** 2 / 2)
    assert np.allclose(D[1], expected, atol=1e-14)


def test_superposition_of_targets():
    a, b = stationary_target((4.0, 2.0, 0.0)), moving_target(9.0, (-6.0, 1.0, 0.0))
    both = make_scenario([a, b], n=20)
    gate = SamplingGrid(both.sampling.delta_t, *fast_time_gate(both))
    from dataclasses import replace
    only_a = replace(both, targets=(a,), sampling=gate)
    only_b = replace(both, targets=(b,), sampling=gate)
    lhs = synthesize_downramped(both)
    rhs = synthesize_downramped(only_a) + synthesize_downramped(only_b)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_reconstruction_identity():
    sc = make_scenario([stationary_target(), moving_target(20.0, (8.0, 4.0, 0.0))],
                       n=30)
    D = synthesize_downramped(sc)
    DB = synthesize_baseband_direct(sc)
    t = fast_times(sc)
    rebuilt = np.real(np.exp(-1j * sc.pulse.carrier_angular_frequency * t)[None, :] * DB)
    assert np.max(np.abs(D - rebuilt)) <= 1e-10 * np.max(np.abs(D))


def test_reflectivity_scaling_is_exact():
    base = make_scenario([stationary_target(reflectivity=1.0)], n=10)
    scaled = make_scenario([stationary_target(reflectivity=3.5)], n=10)
    assert np.array_equal(3.5 * synthesize_downramped(base),
                          synthesize_downramped(scaled))


def test_max_entry_bounded_by_total_reflectivity():
    sc = make_scenario([stationary_target(reflectivity=0.7),
                        moving_target(10.0, reflectivity=0.4)], n=20)
    assert np.max(np.abs(synthesize_downramped(sc))) <= 1.1 + 1e-12


def test_gate_too_narrow_reports_target_index():
    sc = make_scenario([stationary_target((10.0, 5.0, 0.0)),
                        stationary_target((600.0, 0.0, 0.0))], n=10)
    from dataclasses import replace
    # explicit gate fitted to the first target only
    d0 = delta_tau(sc, sc.targets[0], 0.0)
    tight = replace(sc, sampling=SamplingGrid(sc.sampling.delta_t,
                                              d0 - 1e-7, d0 + 1e-7))
    with pytest.raises(GateTooNarrow) as err:
        synthesize_downramped(tight)
    assert err.value.target_index == 1


def test_column_support_stationary_is_small():
    sc = make_scenario([stationary_target()])
    # the platform's own motion gives a little residual delay variation;
    # report it rather than assuming exactly one column
    assert 1 <= column_support(sc, sc.targets[0]) <= 5


def test_column_support_matches_exhaustive_scan():
    sc = make_scenario([moving_target(15.0)])
    tgt = sc.targets[0]
    dtau = delta_tau(sc, tgt, sc.slow_times())
    expected = int(np.ceil((dtau.max() - dtau.min()) / sc.sampling.delta_t))
    assert column_support(sc, tgt) == max(1, expected)


def test_column_support_monotone_in_radial_speed():
    supports = []
    for v in (2.0, 5.0, 10.0, 20.0, 40.0):
        sc = make_scenario([moving_target(v)])
        supports.append(column_support(sc, sc.targets[0]))
    assert all(b >= a for a, b in zip(supports, supports[1:]))


def test_stationary_variation_below_moving_variation():
    sc = make_scenario([stationary_target(), moving_target(15.0)])
    s = sc.slow_times()
    var = [np.ptp(delta_tau(sc, t, s)) for t in sc.targets]
    assert var[0] < var[1]
