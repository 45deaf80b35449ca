"""Complex-baseband conversion of the real down-ramped matrix.

Each row is mixed up by exp(1j w0 t), low-pass filtered in the FFT domain
(brick wall, gain 2 in the passband), and transformed back.  The factor of
2 restores unit peak magnitude after the negative-frequency image at -2*w0
is rejected.  Reconstruction is Re{exp(-1j w0 t) D_B}; no data is lost.

D_B is band-limited to the K kept DFT bins, so `resample` moves it exactly
between the gate's m samples and any grid of >= K samples over the same
span; K samples is the critically sampled grid.
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
    t = t0 + np.arange(m) * delta_t
    spec = np.fft.fft(D * np.exp(1j * w0 * t)[None, :], axis=1)
    gain = np.zeros(m)
    gain[passband_bins(m, pulse, delta_t)] = PASSBAND_GAIN
    spec *= gain[None, :]
    return np.fft.ifft(spec, axis=1)


def passband_bins(m: int, pulse: Pulse, delta_t: float) -> np.ndarray:
    """Signed DFT indices k (angular frequency 2 pi k / (m dt)) that `to_baseband` keeps.

    The set is |w| <= PASSBAND_OVER_B * B, in FFT order (0, 1, ..., -1).
    Negative k index an FFT axis of any length >= K from its end.
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
