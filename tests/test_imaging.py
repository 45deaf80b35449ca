from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from sarlrs import imaging, simulate
from sarlrs.errors import ConfigError
from sarlrs.imaging import ImagingGrid, KmImage, migrate, peak_report, value_at
from sarlrs.scenario import SamplingGrid, advect, load_scenario
from sarlrs.simulate import (differential_delay, fast_times, synthesize_baseband_direct,
                             synthesize_downramped)

from conftest import make_scenario, moving_target, stationary_target

FAST = dict(platform_velocity=(0.0, 300.0, 0.0), ds=0.015)


def small_grid(center=(0.0, 0.0, 0.0), extent=20.0, pixels=21):
    return ImagingGrid(center=list(center), extent_x=extent, extent_y=extent,
                       nx=pixels, ny=pixels)


def migrate_reference(data, scenario, grid, hypothesis_velocity):
    """Migration through np.interp's search of the gate on every pixel-sample."""
    t = fast_times(scenario)
    v = np.asarray(hypothesis_velocity, dtype=float)
    pix = grid.points()
    w0 = scenario.pulse.carrier_angular_frequency
    is_complex = np.iscomplexobj(data)
    acc = np.zeros(pix.shape[0], dtype=complex if is_complex else float)
    below = above = 0
    for j, sj in enumerate(scenario.slow_times()):
        tau = differential_delay(scenario, advect(pix, v, sj), sj)
        below += int(np.count_nonzero(tau < t[0]))
        above += int(np.count_nonzero(tau > t[-1]))
        vals = np.interp(tau, t, data[j], left=0.0, right=0.0)
        if is_complex:
            vals *= np.exp(-1j * w0 * tau)
        acc += vals
    return acc.reshape(grid.ny, grid.nx), below, above


@pytest.mark.parametrize("moving", [False, True], ids=["v0", "mover-v"])
@pytest.mark.parametrize("baseband", [False, True], ids=["D", "DB"])
def test_migrate_matches_interp_reference(scaled_scenario, baseband, moving):
    sc = scaled_scenario
    data = (synthesize_baseband_direct if baseband else synthesize_downramped)(sc)
    v = next(t for t in sc.targets if not t.stationary).velocity if moving else [0.0] * 3
    # 16 m cells over +-200 m: delays fall before the gate and after it
    grid = small_grid(extent=200.0, pixels=25)
    img = migrate(data, sc, grid, hypothesis_velocity=v)
    ref, below, above = migrate_reference(data, sc, grid, v)
    assert below > 0 and above > 0
    assert img.out_of_gate == below + above
    assert np.iscomplexobj(img.values) == baseband
    assert np.max(np.abs(img.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def migrate_per_pixel(data, scenario, grid, hypothesis_velocity):
    """`migrate` with every pixel advected and differenced with the platform as a
    3-vector, as it was before its delays came from the grid's axes."""
    t = fast_times(scenario)
    v = np.asarray(hypothesis_velocity, dtype=float)
    pix = np.asfortranarray(grid.points())
    w0 = scenario.pulse.carrier_angular_frequency
    dt = scenario.sampling.delta_t
    last = t.size - 2
    is_complex = np.iscomplexobj(data)
    acc = np.zeros(pix.shape[0], dtype=complex if is_complex else float)
    out_of_gate = 0
    for j, sj in enumerate(scenario.slow_times()):
        tau = differential_delay(scenario, advect(pix, v, sj), sj)
        inside = np.flatnonzero((tau >= t[0]) & (tau <= t[-1]))
        out_of_gate += tau.size - inside.size
        tau = tau[inside]
        x = (tau - t[0]) / dt
        i = np.minimum(x.astype(np.intp), last)
        row = data[j]
        left = row[i]
        vals = left + (x - i) * (row[i + 1] - left)
        if is_complex:
            vals *= np.exp(-1j * w0 * tau)
        acc[inside] += vals
    return acc.reshape(grid.ny, grid.nx), out_of_gate


@pytest.mark.parametrize("case", [
    ("scaled", "D", False), ("scaled", "D", True), ("scaled", "DB", False),
    ("scaled", "DB", True), ("gotcha", "DB", True), ("gotcha", "D", False)],
    ids=lambda c: f"{c[0]}-{c[1]}-{'mover-v' if c[2] else 'v0'}")
def test_migrate_is_byte_equal_to_the_per_pixel_loop(case):
    regime, source, moving = case
    with resources.as_file(resources.files("sarlrs").joinpath(f"data/{regime}.json")) as p:
        sc = load_scenario(p)
    data = (synthesize_baseband_direct if source == "DB" else synthesize_downramped)(sc)
    v = next(t for t in sc.targets if not t.stationary).velocity if moving else [0.0] * 3
    if regime == "gotcha":  # the benchmark's grid: +-60 m in 121 x 121 pixels
        grid = ImagingGrid(center=sc.reference_point, extent_x=60.0, extent_y=60.0,
                           nx=121, ny=121)
    else:  # unequal axes, off the ground plane, reaching past both ends of the gate
        grid = ImagingGrid(center=[5.3, -3.1, 2.2], extent_x=200.7, extent_y=120.9,
                           nx=31, ny=19)
    img = migrate(data, sc, grid, hypothesis_velocity=v)
    values, out_of_gate = migrate_per_pixel(data, sc, grid, v)
    assert img.values.dtype == values.dtype and img.values.shape == values.shape
    assert img.values.tobytes() == values.tobytes()
    assert img.out_of_gate == out_of_gate > 0


def test_migrate_takes_its_delays_from_the_grid_kernel_once_per_pulse(monkeypatch,
                                                                      scaled_scenario):
    # a stand-in kernel puts pixel (m, k) on sample 3 + k + nx m of every row, so
    # the image is made of those samples only if no other delay reaches it
    sc = scaled_scenario
    t = fast_times(sc)
    grid = ImagingGrid(center=[0.0, 0.0, 0.0], extent_x=10.0, extent_y=5.0, nx=5, ny=3)
    sample = 3 + np.arange(grid.nx)[None, :] + grid.nx * np.arange(grid.ny)[:, None]
    calls = []

    def kernel(scenario, xs, ys, z, velocity, s):
        calls.append(s)
        assert scenario is sc and (xs.size, ys.size, z) == (grid.nx, grid.ny, grid.z())
        return t[sample]

    for module in (simulate, imaging):
        monkeypatch.setattr(module, "grid_delays", kernel)
    data = np.random.default_rng(5).standard_normal((sc.platform.pulse_count, t.size))
    img = migrate(data, sc, grid, hypothesis_velocity=[3.0, 0.0, 0.0])
    assert calls == list(sc.slow_times())
    assert img.out_of_gate == 0
    assert np.allclose(img.values, data[:, sample].sum(axis=0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("edge", [0, -1], ids=["first", "last"])
def test_delay_on_a_gate_edge_takes_that_sample(edge):
    # the reference point's differential delay is exactly 0 at every pulse, and
    # these gates put t[0] == 0.0 or t[-1] == -(44 dt) + 44 dt == 0.0
    base = make_scenario(**FAST)
    dt = base.sampling.delta_t
    gate = (0.0, 40 * dt) if edge == 0 else (-(44 * dt), 0.5 * dt)
    sc = replace(base, sampling=SamplingGrid(dt, *gate))
    t = fast_times(sc)
    assert t[edge] == 0.0
    data = np.random.default_rng(3).standard_normal((sc.platform.pulse_count, t.size))
    grid = small_grid(extent=1.0, pixels=3)  # the middle pixel is the reference point
    img = migrate(data, sc, grid)
    ref, below, above = migrate_reference(data, sc, grid, [0.0] * 3)
    assert img.values[1, 1] == pytest.approx(data[:, edge].sum(), rel=1e-12)
    assert img.out_of_gate == below + above
    assert np.max(np.abs(img.values - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("change", [
    dict(extent_x=np.nan), dict(extent_y=np.inf), dict(extent_x=0.0), dict(extent_y=-1.0),
    dict(center=[np.nan, 0.0, 0.0]), dict(center=[0.0, np.inf, 0.0]), dict(nx=1)])
def test_bad_grid_rejected(change):
    args = dict(center=[0.0, 0.0, 0.0], extent_x=5.0, extent_y=5.0, nx=5, ny=5)
    with pytest.raises(ConfigError):
        ImagingGrid(**{**args, **change})


@pytest.mark.parametrize("velocity", [[np.nan, 0.0, 0.0], [0.0, 0.0, -np.inf]])
def test_non_finite_velocity_rejected(velocity):
    sc = make_scenario([stationary_target()], **FAST)
    with pytest.raises(ConfigError):
        migrate(synthesize_downramped(sc), sc, small_grid(), hypothesis_velocity=velocity)


def test_zero_matrix_gives_zero_image():
    sc = make_scenario([stationary_target()], **FAST)
    D = np.zeros_like(synthesize_downramped(sc))
    img = migrate(D, sc, small_grid())
    assert not np.any(img.values)
    assert peak_report(img) == []


def test_stationary_target_peak_location():
    sc = make_scenario([stationary_target((4.0, -6.0, 0.0))], **FAST)
    DB = synthesize_baseband_direct(sc)
    img = migrate(DB, sc, small_grid(extent=20.0, pixels=21))  # 2 m cells
    peaks = peak_report(img)
    assert len(peaks) >= 1
    assert np.allclose(peaks[0]["location"], [4.0, -6.0], atol=2.0)


def test_moving_target_needs_motion_compensation():
    sc = make_scenario([moving_target(15.0, (4.0, -6.0, 0.0))], **FAST)
    DB = synthesize_baseband_direct(sc)
    grid = small_grid(center=(4.0, -6.0, 0.0))
    plain = migrate(DB, sc, grid, hypothesis_velocity=[0.0, 0.0, 0.0])
    comp = migrate(DB, sc, grid, hypothesis_velocity=[15.0, 0.0, 0.0])

    def pbr(img):
        mag = img.magnitude()
        return value_at(img, [4.0, -6.0]) / np.median(mag)

    assert pbr(comp) > pbr(plain)


def test_real_input_gives_real_image():
    sc = make_scenario([stationary_target()], **FAST)
    D = synthesize_downramped(sc)
    img = migrate(D, sc, small_grid())
    assert not np.iscomplexobj(img.values)


def test_linearity():
    sc = make_scenario([stationary_target((3.0, 1.0, 0.0)),
                        stationary_target((-5.0, -2.0, 0.0))], **FAST)
    DB = synthesize_baseband_direct(sc)
    rng = np.random.default_rng(0)
    A = DB * rng.uniform(0.5, 1.5)
    grid = small_grid()
    lhs = migrate(DB + A, sc, grid).values
    rhs = migrate(DB, sc, grid).values + migrate(A, sc, grid).values
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_two_separated_targets_two_peaks():
    sc = make_scenario([stationary_target((10.0, 8.0, 0.0)),
                        stationary_target((-10.0, -8.0, 0.0))], **FAST)
    DB = synthesize_baseband_direct(sc)
    img = migrate(DB, sc, small_grid(extent=16.0, pixels=33))
    assert len(peak_report(img)) == 2


def test_uniform_image_has_no_peaks():
    grid = small_grid()
    img = KmImage(values=np.ones((grid.ny, grid.nx)), grid=grid)
    assert peak_report(img) == []


def test_border_peak_is_reported():
    grid = small_grid(extent=4.0, pixels=5)
    values = np.zeros((grid.ny, grid.nx))
    values[0, 4] = 2.0
    values[2, 2] = 1.5
    peaks = peak_report(KmImage(values=values, grid=grid))
    assert [p["location"] for p in peaks] == [[4.0, -4.0], [0.0, 0.0]]


def test_zero_background_gives_no_peak_ratio():
    grid = small_grid(extent=4.0, pixels=5)
    values = np.zeros((grid.ny, grid.nx))
    values[1, 3] = 2.0
    peaks = peak_report(KmImage(values=values, grid=grid))
    assert peaks == [{"location": [2.0, -2.0], "magnitude": 2.0, "peak_to_background": None}]


def test_plateau_maxima_are_not_peaks():
    grid = small_grid(extent=4.0, pixels=5)
    values = np.zeros((grid.ny, grid.nx))
    values[2, 1:3] = 2.0
    values[4, 4] = 1.5
    peaks = peak_report(KmImage(values=values, grid=grid))
    assert [p["location"] for p in peaks] == [[4.0, 4.0]]


def test_peak_magnitude_grows_with_pulse_count():
    mags = []
    for n in (40, 80):
        sc = make_scenario([stationary_target((0.0, 0.0, 0.0))], n=n, **FAST)
        DB = synthesize_baseband_direct(sc)
        img = migrate(DB, sc, small_grid(extent=4.0, pixels=5))
        mags.append(value_at(img, [0.0, 0.0]) / (n + 1))
    assert abs(mags[1] - mags[0]) / mags[0] <= 0.05


def test_shape_mismatch_rejected():
    sc = make_scenario([stationary_target()], **FAST)
    with pytest.raises(ConfigError):
        migrate(np.zeros((3, 5)), sc, small_grid())


def test_out_of_gate_pixels_flagged_and_zeroed():
    sc = make_scenario([stationary_target()], **FAST)
    DB = synthesize_baseband_direct(sc)
    far = small_grid(center=(4000.0, 0.0, 0.0), extent=5.0, pixels=5)
    img = migrate(DB, sc, far)
    assert img.out_of_gate > 0
    assert not np.any(img.values)
