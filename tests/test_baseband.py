import concurrent.futures
import json
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from sarlrs import baseband
from sarlrs.baseband import (from_baseband, from_solve_grid, passband_bins, solve_grid_scale,
                             to_baseband, to_solve_grid)
from sarlrs.cli import main
from sarlrs.errors import CarrierAliased, ConfigError, PhysicsError
from sarlrs.rpca import singular_values
from sarlrs.scenario import Pulse, SamplingGrid, load_scenario
from sarlrs.simulate import (fast_time_gate, fast_times, synthesize_baseband_direct,
                             synthesize_downramped)

from conftest import make_scenario, moving_target, stationary_target


def _transform(sc, D):
    t = fast_times(sc)
    return to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=t[0])


def test_zero_matrix_maps_to_zero():
    sc = make_scenario(n=2)
    out = to_baseband(np.zeros((3, 64)), sc.pulse, sc.sampling.delta_t)
    assert not np.any(out)


def test_matches_direct_baseband_model():
    sc = make_scenario([stationary_target()], n=20)
    D = synthesize_downramped(sc)
    DB = _transform(sc, D)
    ref = synthesize_baseband_direct(sc)
    assert np.max(np.abs(DB - ref)) <= 1e-3 * np.max(np.abs(ref))


def test_frobenius_energy_doubles():
    sc = make_scenario([stationary_target(), moving_target(12.0, (6.0, -2.0, 0.0))],
                       n=30)
    D = synthesize_downramped(sc)
    DB = _transform(sc, D)
    ratio = np.linalg.norm(DB) ** 2 / np.linalg.norm(D) ** 2
    assert 1.98 <= ratio <= 2.02


def test_round_trip_is_lossless():
    sc = make_scenario([stationary_target(), moving_target(15.0)], n=30)
    D = synthesize_downramped(sc)
    t = fast_times(sc)
    DB = to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=t[0])
    back = from_baseband(DB, sc.pulse, sc.sampling.delta_t, t0=t[0])
    assert np.max(np.abs(back - D)) <= 1e-6 * np.max(np.abs(D))


def test_filter_is_a_projection():
    sc = make_scenario([stationary_target()], n=10)
    D = synthesize_downramped(sc)
    t = fast_times(sc)
    dt = sc.sampling.delta_t
    once = to_baseband(D, sc.pulse, dt, t0=t[0])
    # re-filter: demodulating the reconstruction must reproduce the same matrix
    twice = to_baseband(from_baseband(once, sc.pulse, dt, t0=t[0]),
                        sc.pulse, dt, t0=t[0])
    assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))


def test_linearity():
    sc = make_scenario([stationary_target()], n=10)
    t = fast_times(sc)
    dt = sc.sampling.delta_t
    rng = np.random.default_rng(3)
    A = rng.standard_normal((11, t.size))
    B = rng.standard_normal((11, t.size))
    lhs = to_baseband(A + 2.0 * B, sc.pulse, dt, t0=t[0])
    rhs = (to_baseband(A, sc.pulse, dt, t0=t[0])
           + 2.0 * to_baseband(B, sc.pulse, dt, t0=t[0]))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_degenerate_zero_carrier_reconstruction():
    pulse = Pulse(1.0, 0.1)  # w0 effectively unused by from_baseband at t=0 grid
    DB = np.ones((2, 8))
    out = from_baseband(DB, Pulse(1e-30, 0.1), 1.0)
    assert np.allclose(out, DB.real)


# both grids read D through the same band extraction, and so the same checks
FROM_D = pytest.mark.parametrize("transform", [to_baseband, to_solve_grid],
                                 ids=["to_baseband", "to_solve_grid"])


@FROM_D
def test_carrier_aliasing_rejected(transform):
    pulse = Pulse(2 * np.pi * 2e8, 2 * np.pi * 1e7)
    with pytest.raises(CarrierAliased):
        transform(np.ones((2, 16)), pulse, delta_t=1e-8)


@FROM_D
def test_fewer_than_eight_columns_rejected(transform):
    pulse = Pulse(2 * np.pi * 2e8, 2 * np.pi * 1e7)
    with pytest.raises(ConfigError):
        transform(np.ones((2, 7)), pulse, delta_t=3.75e-10)


def _reference_to_baseband(D, pulse, delta_t, t0):
    """The demodulation as one complex FFT at the gate's own length, with its own mask."""
    m = D.shape[1]
    t = t0 + np.arange(m) * delta_t
    spec = np.fft.fft(D, axis=1)
    w = 2.0 * np.pi * np.fft.fftfreq(m, d=delta_t)
    keep = np.abs(w + pulse.carrier_angular_frequency) <= 6.0 * pulse.bandwidth_parameter
    spec *= np.where(keep, 2.0, 0.0)[None, :]
    return np.fft.ifft(spec, axis=1) * np.exp(1j * pulse.carrier_angular_frequency * t)


def _reference_to_solve_grid(DB, pulse, delta_t, t0):
    """The solve grid read off D_B: demix, one FFT at m, keep the bins, one K-point inverse."""
    bins = passband_bins(DB.shape[1], pulse, delta_t)
    t = t0 + np.arange(DB.shape[1]) * delta_t
    spec = np.fft.fft(DB * np.exp(-1j * pulse.carrier_angular_frequency * t), axis=1,
                      norm="forward")
    return np.fft.ifft(np.roll(spec[:, bins], bins[0], axis=1), axis=1, norm="forward")


@pytest.mark.parametrize("regime, kept", [("scaled", 135), ("gotcha", 956)])
def test_critically_sampled_grid_is_exact(regime, kept):
    with resources.as_file(resources.files("sarlrs").joinpath(f"data/{regime}.json")) as p:
        sc = load_scenario(p)
    D = synthesize_downramped(sc)
    dt, t0 = sc.sampling.delta_t, fast_times(sc)[0]
    DB = to_baseband(D, sc.pulse, dt, t0=t0)
    ref = _reference_to_baseband(D, sc.pulse, dt, t0)
    assert np.max(np.abs(DB - ref)) <= 1e-13 * np.max(np.abs(ref))
    m = DB.shape[1]
    assert passband_bins(m, sc.pulse, dt).size == kept
    short = to_solve_grid(D, sc.pulse, dt)
    assert short.shape == (DB.shape[0], kept)
    # read off D, the grid is the one the demixed D_B's bins give
    via_DB = _reference_to_solve_grid(DB, sc.pulse, dt, t0)
    assert np.linalg.norm(short - via_DB) <= 1e-13 * np.linalg.norm(short)
    # DB lies in the kept bins, so mapping D's short grid back gives DB
    back = from_solve_grid(short, sc.pulse, dt, m, t0=t0)
    assert np.linalg.norm(back - DB) <= 1e-13 * np.linalg.norm(DB)
    # the map between the grids is a scaled isometry
    full_sigma, short_sigma = singular_values(DB), singular_values(short)
    assert np.max(np.abs(short_sigma - full_sigma * np.sqrt(kept / m))) <= 1e-12 * short_sigma[0]


def _shipped(regime):
    with resources.as_file(resources.files("sarlrs").joinpath(f"data/{regime}.json")) as p:
        return load_scenario(p)


def _is_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_no_fft_at_an_unsmooth_length(monkeypatch, tmp_path):
    # 2992 = 2^4 11 17 and 31674 = 2 3 5279 samples reach the shipped gates' ends,
    # and an explicit gate of 41 samples reaches the end of (0, 40 dt)
    base = make_scenario([stationary_target()], n=10)
    dt = base.sampling.delta_t
    explicit = replace(base, sampling=SamplingGrid(dt, 0.0, 40 * dt))
    for sc, m in ((_shipped("scaled"), 3000), (_shipped("gotcha"), 32000), (explicit, 45)):
        assert fast_times(sc).size == m and _is_smooth(m)
    calls = []  # (transform, length)
    for name in ("fft", "ifft", "rfft", "irfft"):
        transform = getattr(np.fft, name)

        def recorded(a, n=None, axis=-1, *args, transform=transform, name=name, **kwargs):
            calls.append((name, np.shape(a)[axis] if n is None else n))
            return transform(a, n, axis, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, recorded)
    assert main(["pipeline", "--regime", "scaled", "--eta", "optimal", "--grid-pixels", "11",
                 "--out", str(tmp_path)]) == 0
    K = json.loads((tmp_path / "rpca_report.json").read_text())["solve_columns"]
    lengths = [n for _, n in calls]
    assert 3000 in lengths
    # the solve grid's K-point transforms are small and may take any length
    assert all(_is_smooth(n) for n in lengths if n != K), lengths
    # D's band is extracted once, by its real FFT: the solve grid does not take
    # a complex FFT of DB at the gate's length
    assert ("rfft", 3000) in calls and ("fft", 3000) not in calls, calls


def test_solve_grid_peak_memory():
    # the band is read off D's real FFT, half a complex gate-length matrix;
    # no complex gate-length matrix is made
    sc = _shipped("scaled")
    D = synthesize_downramped(sc)
    tracemalloc.start()
    try:
        to_solve_grid(D, sc.pulse, sc.sampling.delta_t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.7 * D.shape[0] * D.shape[1] * 16


@pytest.mark.parametrize("regime", ["scaled", "gotcha"])
def test_shipped_scenes_match_the_direct_baseband_model(regime):
    sc = _shipped(regime)
    DB = _transform(sc, synthesize_downramped(sc))
    # the direct model on the same gate as DB
    t0, t1 = fast_time_gate(sc)
    pinned = replace(sc, sampling=SamplingGrid(delta_t=sc.sampling.delta_t,
                                               gate_start=t0, gate_end=t1))
    direct = synthesize_baseband_direct(pinned)
    assert np.max(np.abs(DB - direct)) <= 3e-9 * np.max(np.abs(direct))


@pytest.mark.parametrize("regime, m, kept", [("scaled", 3000, 135), ("gotcha", 32000, 956)])
def test_solve_grid_scale_maps_the_solve_grid_spectrum(regime, m, kept):
    sc = _shipped(regime)
    dt = sc.sampling.delta_t
    scale = solve_grid_scale(m, sc.pulse, dt)
    assert scale == np.sqrt(m / kept)
    D = synthesize_downramped(sc)
    full = singular_values(to_baseband(D, sc.pulse, dt, t0=fast_times(sc)[0]))
    short = singular_values(to_solve_grid(D, sc.pulse, dt))
    assert np.max(np.abs(scale * short - full)) <= 1e-12 * full[0]


def test_solve_grid_scale_rejects_an_empty_band():
    # 8 samples 3.75e-10 s apart put their bins 333 MHz apart: none lies within
    # 6B = 6 MHz of the 200 MHz carrier
    pulse = Pulse(2 * np.pi * 2e8, 2 * np.pi * 1e6)
    with pytest.raises(PhysicsError):
        solve_grid_scale(8, pulse, 3.75e-10)


@pytest.mark.parametrize("regime", ["scaled", "gotcha"])
def test_solve_grid_is_c_ordered(regime):
    # the solve takes the CLI's grid as it is: `decompose`'s contiguous view
    # of it is the grid itself, not a copy
    sc = _shipped(regime)
    DB_K = to_solve_grid(synthesize_downramped(sc), sc.pulse, sc.sampling.delta_t)
    assert DB_K.flags.c_contiguous
    assert np.shares_memory(np.ascontiguousarray(DB_K, np.complex128), DB_K)


def _on_cpus(monkeypatch, count):
    """Give this process `count` CPUs as the maps see them, and record each pool they start."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return pools


def _maps(D, M, pulse, dt):
    m = D.shape[1]
    return (to_baseband(D, pulse, dt, t0=-2e-7), to_solve_grid(D, pulse, dt),
            from_solve_grid(M, pulse, dt, m, t0=-2e-7))


BAND_ROWS = baseband.BAND_ROWS


# row counts about one BAND_ROWS block, and counts whose ranges over 2 and 3
# workers start and end inside a block
@pytest.mark.parametrize("rows", [1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1,
                                  15, 16, 17, 42, 43, 44, 237])
def test_threaded_maps_are_byte_equal_to_one_block_on_one_thread(monkeypatch, rows):
    sc = make_scenario(n=2)
    pulse, dt = sc.pulse, sc.sampling.delta_t
    rng = np.random.default_rng(rows)
    D = rng.standard_normal((rows, 3000))
    K = passband_bins(3000, pulse, dt).size
    M = rng.standard_normal((rows, K)) + 1j * rng.standard_normal((rows, K))
    with monkeypatch.context() as one:
        one.setattr(baseband, "BAND_ROWS", rows)
        assert _on_cpus(one, 1) == []
        whole = _maps(D, M, pulse, dt)
    before = set(threading.enumerate())
    monkeypatch.setattr(baseband, "THREADED_ENTRIES", 0)
    for workers in (1, 2, 3):
        pools = _on_cpus(monkeypatch, workers)
        for got, want in zip(_maps(D, M, pulse, dt), whole):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # to_baseband maps the band and then the gate, the grids one each: a pool of a
        # thread per CPU, at most one per row, for each; one worker starts none
        threads = min(workers, rows)
        assert pools == ([threads] * 4 if threads > 1 else [])
        assert set(threading.enumerate()) == before


@pytest.mark.parametrize("transform", ["rfft", "ifft"])
def test_an_exception_in_a_block_propagates_and_no_worker_outlives_the_map(monkeypatch,
                                                                          transform):
    sc = make_scenario(n=2)
    pulse, dt = sc.pulse, sc.sampling.delta_t
    D = np.random.default_rng(0).standard_normal((237, 3000))
    monkeypatch.setattr(baseband, "THREADED_ENTRIES", 0)
    pools = _on_cpus(monkeypatch, 2)
    original, calls = getattr(np.fft, transform), []

    class Injected(Exception):
        pass

    def failing(a, *args, **kwargs):
        calls.append(threading.get_ident())
        if len(calls) == 2:
            raise Injected
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, transform, failing)
    before = set(threading.enumerate())
    with pytest.raises(Injected):
        to_baseband(D, pulse, dt)
    # the band's map raises on rfft; the gate's, after the band's, on ifft
    assert pools == [2] * (1 if transform == "rfft" else 2)
    assert threading.get_ident() not in calls
    assert set(threading.enumerate()) == before


def test_maps_below_the_threaded_size_run_in_the_callers_thread(monkeypatch):
    # 349 x 3000 entries fall below 2^20, 350 x 3000 reach it
    sc = make_scenario(n=2)
    pools = _on_cpus(monkeypatch, 2)
    for rows, started in ((349, []), (350, [2, 2])):
        D = np.random.default_rng(rows).standard_normal((rows, 3000))
        to_baseband(D, sc.pulse, sc.sampling.delta_t)
        assert pools == started


def test_cpus_without_affinity_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert baseband._cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown
    assert baseband._cpus() == 1


_SCENE = make_scenario(n=2)
_K = passband_bins(3000, _SCENE.pulse, _SCENE.sampling.delta_t).size  # the grid's columns


@pytest.mark.parametrize("transform, shape", [
    ("from_solve_grid", (_K,)), ("from_solve_grid", (2, _K - 1)),
    ("from_solve_grid", (2, _K + 1)), ("from_solve_grid", (2, 2, _K)),
    ("from_baseband", (3000,)), ("from_baseband", (2, 2, 3000)),
], ids=["grid-1d", "grid-short", "grid-long", "grid-3d", "baseband-1d", "baseband-3d"])
def test_gate_maps_reject_a_matrix_of_the_wrong_shape(transform, shape):
    # a 1-D input raised IndexError, and a grid of other than K columns numpy's
    # shape mismatch inside a block
    pulse, dt = _SCENE.pulse, _SCENE.sampling.delta_t
    M = np.ones(shape, dtype=complex)
    with pytest.raises(ConfigError):
        if transform == "from_solve_grid":
            from_solve_grid(M, pulse, dt, 3000, t0=0.0)
        else:
            from_baseband(M, pulse, dt)
