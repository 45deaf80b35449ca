"""Complex-baseband conversion of the real down-ramped matrix.

Each row is zero-padded to the next 5-smooth length P >= m (P = 2^a 3^b 5^c:
3000 for the scaled gate's 2992 columns, 32000 for gotcha's 31674) and
real-FFT'd.  The bins within 6B of -w0 are kept with gain 2, the rest are
zeroed, and the result is inverse-FFT'd at P, cropped to the gate's m
columns and mixed up by exp(1j w0 t): a brick-wall low-pass of half-width
6B around baseband.  The factor of 2 restores unit peak magnitude after the
image at +w0 is rejected.  Reconstruction is Re{exp(-1j w0 t) D_B}; no data
is lost.

Because of the zero padding the brick wall is a linear filter over the
gate, not a circular one at m.  So D_B lies in the K bins of the m-point
DFT that `passband_bins` gives only up to about 1e-9 of its norm.
`resample` moves that band exactly between the gate's m samples and any
grid of >= K samples over the same span; K samples is the critically
sampled grid.
"""

from __future__ import annotations

import numpy as np

from .errors import CarrierAliased, ConfigError
from .scenario import Pulse

# Passband half-width in units of B.  The Gaussian envelope's spectrum is
# exp(-w^2 / (2 B^2)); at 6B the truncated tail is ~1e-8, which keeps the
# round-trip error well below 1e-6 of the peak.  The image at 2*w0 needs
# w0/B >= ~7 to stay outside; narrowband scenes (w0/B >= 10) always do.
PASSBAND_OVER_B = 6.0
PASSBAND_GAIN = 2.0


def to_baseband(D: np.ndarray, pulse: Pulse, delta_t: float, t0: float = 0.0) -> np.ndarray:
    """Per-row FFT demodulation of a real matrix to complex baseband.

    One real FFT and one inverse FFT, both at the next 5-smooth length P >= m:
    the gate's own length may have a large prime factor (31674 = 2 3 5279 on
    gotcha), where an FFT costs several times more.  Bin k of the padded
    spectrum, at angular frequency 2 pi k / (P dt), is kept when it lies
    within PASSBAND_OVER_B * B of -w0.
    t0 is the fast time of the first column; the mixer phase must use the
    absolute fast-time axis for the reconstruction identity to hold.
    """
    D = np.asarray(D)
    if D.ndim != 2 or D.shape[1] < 8:
        raise ConfigError("matrix must be 2-D with at least 8 columns")
    w0 = pulse.carrier_angular_frequency
    if w0 * delta_t >= np.pi:
        raise CarrierAliased(f"omega_0*dt = {w0 * delta_t:.3f} >= pi")
    m = D.shape[1]
    P = _smooth_length(m)
    half = np.fft.rfft(D, n=P, axis=1)
    w = 2.0 * np.pi * np.fft.fftfreq(P, d=delta_t)
    k = np.flatnonzero(np.abs(w + w0) <= PASSBAND_OVER_B * pulse.bandwidth_parameter)
    # a real row's bin k > P/2 is the conjugate of its rfft bin P - k
    src = np.minimum(k, P - k)
    spec = np.zeros((D.shape[0], P), dtype=half.dtype)
    spec[:, k] = PASSBAND_GAIN * np.where(k > P // 2, half[:, src].conj(), half[:, src])
    del half
    np.fft.ifft(spec, axis=1, out=spec)
    t = t0 + np.arange(m) * delta_t
    return spec[:, :m] * np.exp(1j * w0 * t)[None, :]


def _smooth_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: FFTs at such lengths avoid large prime factors."""
    n = m
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def passband_bins(m: int, pulse: Pulse, delta_t: float) -> np.ndarray:
    """Signed m-point DFT indices k (angular frequency 2 pi k / (m dt)) of D_B's band.

    The set is |w| <= PASSBAND_OVER_B * B, in FFT order (0, 1, ..., -1).
    Negative k index an FFT axis of any length >= K from its end.
    `to_baseband` filters at a padded length, so its output holds about
    1e-9 of its norm outside these bins.
    """
    w = 2.0 * np.pi * np.fft.fftfreq(m, d=delta_t)
    idx = np.flatnonzero(np.abs(w) <= PASSBAND_OVER_B * pulse.bandwidth_parameter)
    return np.where(idx < (m + 1) // 2, idx, idx - m)


def resample(M: np.ndarray, bins: np.ndarray, length: int) -> np.ndarray:
    """Rows band-limited to the DFT bins `bins`, resampled onto `length` samples.

    Both grids span the same time, starting at the same instant: the
    output is the rows' band-limited interpolant sampled at dt * m / length.
    It is exact for length >= len(bins), in both directions, and linear
    per row; from m to K = len(bins) samples it scales every singular value
    by sqrt(K / m), and back by sqrt(m / K).
    """
    M = np.asarray(M)
    spec = np.fft.fft(M, axis=1, norm="forward")
    out = np.zeros((M.shape[0], length), dtype=spec.dtype)
    out[:, bins] = spec[:, bins]
    return np.fft.ifft(out, axis=1, norm="forward")


def from_baseband(DB: np.ndarray, pulse: Pulse, delta_t: float, t0: float = 0.0) -> np.ndarray:
    """Reconstruct the real down-ramped matrix: Re{exp(-1j w0 t) D_B}."""
    DB = np.asarray(DB)
    m = DB.shape[1]
    t = t0 + np.arange(m) * delta_t
    return np.real(DB * np.exp(-1j * pulse.carrier_angular_frequency * t)[None, :])
