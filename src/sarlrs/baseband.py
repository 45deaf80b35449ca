"""Complex-baseband conversion of the real down-ramped matrix.

Each row of m samples is real-FFT'd at m, which `simulate.fast_times` makes
5-smooth (3000 on the shipped `scaled` gate, 32000 on `gotcha`).  The bins
`passband_bins` names, those within 6B of -w0, are kept with gain 2, the
rest are zeroed, and the result is inverse-FFT'd at m and mixed up by
exp(1j w0 t): a brick-wall low-pass of half-width 6B around baseband.  The
factor of 2 restores unit peak magnitude after the image at +w0 is rejected.
Reconstruction is Re{exp(-1j w0 t) D_B}; no data is lost.

`passband_bins` is the one definition of the band, and `_band` the one
extraction of it from D.  `to_baseband` puts the band on the gate's m
samples; `to_solve_grid` puts it on the critically sampled, C-ordered grid
of K samples, and `from_solve_grid` moves that grid back onto the gate's.
`solve_grid_scale` is the one statement of how values change between the
two grids.  Only the gate side carries the mixer and its t0.

The gate-length maps, `_band`'s real FFT and `_to_gate`'s inverse FFT and
mixer, split their rows into one contiguous range per worker.  numpy's FFT
releases the interpreter lock for a whole block of rows, so when the process
may use more than one CPU (`os.sched_getaffinity`) the ranges run on a
ThreadPoolExecutor of a thread per CPU, at most one per row.  Below
THREADED_ENTRIES gate entries n m, or with one worker, the one range of all
rows runs in the caller's thread; no thread outlives the call.  Each worker
writes only its own rows of one preallocated output, the n x K band or the
n x m gate matrix.  `_to_gate` transforms its range in place in one call;
`_band` takes its range BAND_ROWS rows at a time through one rfft buffer of
its own, so no whole-matrix rfft (m/2 + 1 bins a row, 60 MB on `gotcha`) is
made.  A row's transform is the same arithmetic in any range on any thread,
so every output is the same to the byte whatever the CPU count.

The block size was set by timing the maps on `gotcha` (2 vCPU, medians of
15 calls).  `_to_gate` took 146-172 ms on one thread and 85-105 ms on two
with 4 to 32 rows a block, so it needs no block of its own.  `_band` took
62-67 ms on one thread and, on two, 65-73, 50-54, 46, 45 and 41-45 ms with
1, 2, 4, 8 and 16 rows a block.  Larger buffers cost memory: with 8 or 16
rows (2 or 4 MB a thread) one `gotcha` front-end pass of the benchmark
peaked at 347.4 MB, with 1 to 4 rows at 342.5-343.2 MB, as with the
whole-matrix rfft (342.6 MB); BAND_ROWS is 4.  Below about 2^20 entries
the pool costs more than it saves: on one thread against two, a 101 x 3000
matrix (`scaled`) took 2.0 against 3.2 ms in `_band` and 3.6 against 3.7 ms
in `_to_gate`, 400 x 3000 took 7.9 against 6.4 and 16.4 against 11.0 ms,
32 x 32000 8.6 against 9.0 and 18.2 against 15.6 ms, and 237 x 32000
(`gotcha`) 72 against 47 and 161 against 103 ms.  Only these maps are
threaded.  Two threads over synthesis rows took 92 ms against 101 ms on
one, splitting migration's pixels gained nothing, and the RPCA pass took
102 ms against 97 ms.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CarrierAliased, ConfigError, PhysicsError
from .scenario import Pulse

# Passband half-width in units of B.  The Gaussian envelope's spectrum is
# exp(-w^2 / (2 B^2)); at 6B the truncated tail is ~1e-8, which keeps the
# round-trip error well below 1e-6 of the peak.  The image at 2*w0 needs
# w0/B >= ~7 to stay outside; narrowband scenes (w0/B >= 10) always do.
PASSBAND_OVER_B = 6.0
PASSBAND_GAIN = 2.0
BAND_ROWS = 4                # rows of a worker's rfft buffer in `_band`
THREADED_ENTRIES = 1 << 20   # maps of fewer n x m entries run in the caller's thread


def to_baseband(D: np.ndarray, pulse: Pulse, delta_t: float, t0: float = 0.0) -> np.ndarray:
    """Per-row FFT demodulation of a real matrix to complex baseband.

    One real FFT and one inverse FFT at the row length m, keeping the bins
    of `passband_bins`.  t0 is the fast time of the first column; the mixer
    phase must use the absolute fast-time axis for the reconstruction
    identity to hold.
    """
    band, bins = _band(D, pulse, delta_t)
    return _to_gate(band, bins, np.shape(D)[1], pulse, delta_t, t0)


def passband_bins(m: int, pulse: Pulse, delta_t: float) -> np.ndarray:
    """The band `to_baseband` keeps: the consecutive signed m-point DFT indices k, at
    angular frequency 2 pi k / (m dt), within PASSBAND_OVER_B * B of -w0.  Negative k
    index an FFT axis from its end.  Their count K is the solve grid's column count.
    Raises `PhysicsError` when no bin lies in the band.
    """
    k = np.arange(-(m // 2), (m + 1) // 2)
    w = 2.0 * np.pi * k / (m * delta_t)
    k = k[np.abs(w + pulse.carrier_angular_frequency)
          <= PASSBAND_OVER_B * pulse.bandwidth_parameter]
    if k.size == 0:
        raise PhysicsError(f"no {m}-point DFT bin lies within {PASSBAND_OVER_B:g}B of "
                           "the carrier: the gate is too short for the pulse's band")
    return k


def solve_grid_scale(m: int, pulse: Pulse, delta_t: float) -> float:
    """sqrt(m / K), K the size of `passband_bins(m, ...)`: the solve grid's scale rule.

    `from_solve_grid` scales every singular value by sqrt(m / K), and the l1
    norm of a sparse trace by about m / K, so an eta chosen on the gate's
    grid is eta * sqrt(m / K) on the solve grid, and a solve-grid spectrum
    times sqrt(m / K) is the gate grid's.  Raises `PhysicsError` when no bin
    lies in the band.

    The real D's spectrum follows from the same grid DB_K = `to_solve_grid(D)`.
    D's DFT is the band and its mirror image, so D D^T = (m / 2K) Re(DB_K DB_K^H),
    and Re(DB_K DB_K^H) is the Gram matrix of the real n x 2K [Re DB_K, Im DB_K]:
    D's singular values are sqrt(m / 2K) times that matrix's, up to the band's
    6B tail.  D's nuclear norm agreed to 1e-16 to 6e-10 relative on the shipped
    scenes and their single targets, and to 1.1e-11 on the whole `scaled`
    scene.  `spectra.csv` takes D's row from this rule: its 64 values are
    within 2.4e-12 of sigma_0 of D's own on `scaled` (those near the tail,
    about 1e-11 sigma_0, differ in their leading digits) and 1.8e-15 on
    `gotcha`, and the row is checked to 1e-11 of sigma_0.
    """
    return float(np.sqrt(m / passband_bins(m, pulse, delta_t).size))


def _band(D, pulse: Pulse, delta_t: float) -> tuple[np.ndarray, np.ndarray]:
    """The real D's m-point DFT values (norm="forward") on `passband_bins`, with gain
    PASSBAND_GAIN, and those bins: the passband both grids are built from."""
    D = np.asarray(D)
    if D.ndim != 2 or D.shape[1] < 8:
        raise ConfigError("matrix must be 2-D with at least 8 columns")
    w0 = pulse.carrier_angular_frequency
    if w0 * delta_t >= np.pi:
        raise CarrierAliased(f"omega_0*dt = {w0 * delta_t:.3f} >= pi")
    n, m = D.shape
    k = passband_bins(m, pulse, delta_t)
    cols, flip = np.abs(k), int(np.count_nonzero(k < 0))  # k ascends: negatives lead
    band = np.empty((n, k.size), dtype=complex)

    def work(rows):
        half = np.empty((BAND_ROWS, m // 2 + 1), dtype=complex)
        for i in range(rows.start, rows.stop, BAND_ROWS):
            block = slice(i, min(i + BAND_ROWS, rows.stop))
            out, part = band[block], half[:block.stop - i]
            np.fft.rfft(D[block], axis=1, norm="forward", out=part)
            # a real row's bin -j is the conjugate of its rfft bin j
            np.take(part, cols, axis=1, out=out, mode="clip")
            np.conjugate(out[:, :flip], out=out[:, :flip])
            out *= PASSBAND_GAIN

    _by_row_blocks(D.shape, work)
    return band, k


def to_solve_grid(D: np.ndarray, pulse: Pulse, delta_t: float) -> np.ndarray:
    """`to_baseband(D)`'s rows on their critically sampled grid: K samples over the gate's span.

    The value on bin k of `_band` goes to bin k mod K of a K-point inverse
    FFT, which samples the row of D_B, demixed by exp(-1j w0 t), every m / K
    columns.  The map is exact and linear per row (`solve_grid_scale` states
    its scale), and the grid is C-ordered, so `rpca.decompose` solves it
    without a copy.  The grid has no mixer: unit column phases change no
    singular value or modulus.
    """
    band, bins = _band(D, pulse, delta_t)
    return np.fft.ifft(np.roll(band, bins[0], axis=1), axis=1, norm="forward")


def from_solve_grid(M: np.ndarray, pulse: Pulse, delta_t: float, m: int, t0: float) -> np.ndarray:
    """K-sample rows back onto the gate's m samples, mixed up with t0 as `to_baseband` is.

    `from_solve_grid(to_solve_grid(D), ..., m, t0)` is `to_baseband(D, ..., t0)`
    to rounding, not D: the grid holds only the band.  M must be 2-D with K
    columns, K the size of `passband_bins(m, ...)`, else `ConfigError`.
    """
    bins = passband_bins(m, pulse, delta_t)
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[1] != bins.size:
        raise ConfigError(f"solve grid must be 2-D with {bins.size} columns, got shape {M.shape}")
    band = np.roll(np.fft.fft(M, axis=1, norm="forward"), -bins[0], axis=1)
    return _to_gate(band, bins, m, pulse, delta_t, t0)


def _to_gate(band, bins, m: int, pulse: Pulse, delta_t: float, t0: float) -> np.ndarray:
    """Rows of m-point DFT values on `bins` (norm="forward") as m samples, mixed up."""
    out = np.zeros((band.shape[0], m), dtype=complex)
    mixer = _mixer(m, pulse.carrier_angular_frequency, delta_t, t0)

    def work(rows):
        block = out[rows]
        block[:, bins] = band[rows]
        np.fft.ifft(block, axis=1, norm="forward", out=block)
        block *= mixer

    _by_row_blocks(out.shape, work)
    return out


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _by_row_blocks(shape: tuple[int, int], work) -> None:
    """work(rows) once for each worker's contiguous row slice `rows` of an n x m map.

    With fewer than THREADED_ENTRIES entries n m there is one worker, and
    work(slice(0, n)) runs in the caller's thread.  Otherwise there are
    min(CPUs, n) workers, and with more than one a ThreadPoolExecutor runs
    them, a thread each.  The pool's threads are joined before this returns,
    or raises a worker's exception.
    """
    n, m = shape
    workers = min(_cpus(), n) if n * m >= THREADED_ENTRIES else 1
    if workers <= 1:
        work(slice(0, n))
        return
    # imported here, not with the module: it adds about 7 ms to every start-up
    from concurrent.futures import ThreadPoolExecutor
    bounds = [n * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(work, map(slice, bounds[:-1], bounds[1:])):
            pass


def _mixer(m: int, w: float, delta_t: float, t0: float) -> np.ndarray:
    """exp(1j w t) at t = t0 + l dt: exp(-1j w0 t) is then exactly exp(1j w0 t)'s conjugate."""
    return np.exp(1j * w * (t0 + np.arange(m) * delta_t))


def from_baseband(DB: np.ndarray, pulse: Pulse, delta_t: float, t0: float = 0.0) -> np.ndarray:
    """Reconstruct the real down-ramped matrix: Re{exp(-1j w0 t) D_B}.  DB must be 2-D."""
    DB = np.asarray(DB)
    if DB.ndim != 2:
        raise ConfigError("matrix must be 2-D")
    return np.real(DB * _mixer(DB.shape[1], -pulse.carrier_angular_frequency, delta_t, t0))
