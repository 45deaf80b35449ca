"""Norm and spectrum diagnostics for SAR data matrices.

Brute-force l1/Frobenius/nuclear evaluations, their closed-form estimates,
empirical eta bounds from class-representative matrices, and the scores of
a low-rank plus sparse split: the relative Frobenius errors of S against
the moving-only and of L against the stationary-only reference matrix,
and the cosine between S and the moving-only reference.
Every spectrum the package reports comes from `rpca.singular_values`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientSweep
from .eta import ApertureParams, EtaBounds, analytic_column_support, _spectrum_normalization
from .rpca import singular_values
from .scenario import SamplingGrid, Scenario, Target
from .simulate import fast_time_gate, synthesize_baseband_direct, synthesize_downramped

EFFECTIVE_SUPPORT_REL = 1e-3   # sigma_k above 1e-3 * sigma_0 count as support
SCORE_ROWS = 16                # rows per reference block in separation_metrics


class NarrowbandViolated(UserWarning):
    """omega_0/B < 10: the stationary-phase l1 estimate loses accuracy."""


def l1_norm(M) -> float:
    """Elementwise absolute sum (complex moduli for complex input)."""
    return float(np.sum(np.abs(M)))


def analytic_l1(params: ApertureParams, regime: str,
                carrier_angular_frequency: float | None = None) -> float:
    """Closed-form l1 norm of a unit-reflectivity single-target matrix.

    Independent of the target's velocity; the original (real, modulated)
    matrix is smaller than the baseband one by exactly 2/pi.
    """
    b_dt = params.bandwidth_parameter * params.delta_t
    base = 2.0 * params.aperture_time / (params.delta_s * b_dt)
    if regime == "baseband":
        return base * math.sqrt(2.0 * math.pi)
    if regime == "original":
        if (carrier_angular_frequency is not None
                and carrier_angular_frequency / params.bandwidth_parameter < 10.0):
            warnings.warn("omega_0/B < 10; modulated-pulse l1 estimate degrades",
                          NarrowbandViolated)
        return base * 2.0 * math.sqrt(2.0 / math.pi)
    raise ValueError(f"unknown regime '{regime}'")


@dataclass
class SpectrumReport:
    singular_values: np.ndarray
    nuclear_norm: float
    frobenius_norm: float
    effective_support: int


def model_spectrum(params: ApertureParams, count: int) -> np.ndarray:
    """Analytic singular-value model for a single moving target.

    Gaussian decay in k with width set by the trace's column support N.
    """
    b_dt = params.bandwidth_parameter * params.delta_t
    N = analytic_column_support(params)
    norm = _spectrum_normalization(N, b_dt)
    amp = math.sqrt(2.0 * params.aperture_time * math.sqrt(math.pi)
                    / (params.delta_s * b_dt * norm))
    k = np.arange(count)
    return amp * np.exp(-np.pi**2 * k**2 / (2.0 * (N * b_dt) ** 2))


def spectrum(M) -> SpectrumReport:
    """Singular values of M with the norms they give; raises SvdFailure."""
    sig = singular_values(np.asarray(M))
    n_eff = int(np.sum(sig > EFFECTIVE_SUPPORT_REL * sig[0]))
    return SpectrumReport(
        singular_values=sig,
        nuclear_norm=float(sig.sum()),
        frobenius_norm=float(np.sqrt(np.sum(sig**2))),
        effective_support=n_eff,
    )


def gaussian_decay_fit(sig: np.ndarray, support: int) -> tuple[float, float]:
    """Least squares of log sigma_k^2 against k^2 over the effective support.

    Returns (slope, r_squared); a Gaussian-decay spectrum gives slope < 0
    with r_squared near 1.
    """
    support = max(3, min(support, sig.size))
    k2 = np.arange(support, dtype=float) ** 2
    y = 2.0 * np.log(sig[:support])
    slope, intercept = np.polyfit(k2, y, 1)
    fitted = slope * k2 + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def nuclear_velocity_exponent(scenario: Scenario, position, speeds,
                              direction=(1.0, 0.0, 0.0)) -> dict:
    """Log-log growth rate of the nuclear norm with target speed.

    Synthesizes a single-target baseband matrix per speed (the target at
    `position` moving along `direction`) and fits nuclear and Frobenius
    norms against speed.  Each speed's "l1" norm is returned with them, so
    nuclear / l1 is its empirical eta_max.
    """
    speeds = np.asarray(speeds, dtype=float)
    if speeds.size < 4 or speeds.max() / speeds.min() < 10.0:
        raise InsufficientSweep("need >= 4 speeds spanning at least one decade")
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    nuclear, frobenius, l1 = [], [], []
    for v in np.sort(speeds):
        sc = scenario.with_targets([Target(position=position, velocity=v * direction)])
        DB = synthesize_baseband_direct(sc)
        rep = spectrum(DB)
        nuclear.append(rep.nuclear_norm)
        frobenius.append(rep.frobenius_norm)
        l1.append(l1_norm(DB))
    logs = np.log(np.sort(speeds))
    beta = float(np.polyfit(logs, np.log(nuclear), 1)[0])
    fro_slope = float(np.polyfit(logs, np.log(frobenius), 1)[0])
    return {
        "speeds": np.sort(speeds),
        "nuclear": np.array(nuclear),
        "frobenius": np.array(frobenius),
        "l1": np.array(l1),
        "beta": beta,
        "frobenius_slope": fro_slope,
    }


def nuclear_to_l1(M) -> float:
    """||M||_* / ||M||_1, the eta bound a class representative sets."""
    return spectrum(M).nuclear_norm / l1_norm(M)


def empirical_eta_bounds(stationary_matrix, moving_matrix) -> EtaBounds:
    """Nuclear-to-l1 ratios of single-target class representatives."""
    return EtaBounds(
        eta_min=nuclear_to_l1(stationary_matrix),
        eta_max=nuclear_to_l1(moving_matrix),
        regime="empirical",
        column_support=math.nan,
    )


@dataclass
class SeparationMetrics:
    s_error: float | None    # ||S - M_ref||_F / ||M_ref||_F
    l_error: float | None    # ||L - C_ref||_F / ||C_ref||_F
    s_cosine: float | None   # |<S, M_ref>| / (||S||_F ||M_ref||_F), in [0, 1]
    residual: float

    def as_dict(self) -> dict:
        return {"s_error": self.s_error, "l_error": self.l_error,
                "s_cosine": self.s_cosine, "residual": self.residual}


def _score(X, synth, scenario) -> tuple[float | None, float | None]:
    """(||X - R|| / ||R||, |<X, R>| / (||X|| ||R||)), None for a zero denominator.

    The reference R = synth(scenario) is synthesized SCORE_ROWS rows at a
    time, and each sum is taken over the blocks, so no full-size array is
    made: a block of R is overwritten with R - X.
    """
    rr = xx = xr = dd = 0.0
    for first in range(0, scenario.platform.pulse_count, SCORE_ROWS):
        rows = slice(first, first + SCORE_ROWS)
        R, Xb = synth(scenario, rows=rows), X[rows]
        rr += np.vdot(R, R).real
        xx += np.vdot(Xb, Xb).real
        xr += np.vdot(Xb, R)
        np.subtract(R, Xb, out=R)
        dd += np.vdot(R, R).real
        del R  # before the next block is synthesized
    error = math.sqrt(dd / rr) if rr > 0 else None
    # rounding lifts the cosine of X = c R up to a few ulp past 1
    cosine = min(1.0, float(abs(xr) / math.sqrt(xx * rr))) if xx * rr > 0 else None
    return error, cosine


def separation_metrics(decomposition, scenario: Scenario) -> SeparationMetrics:
    """Score S against the moving-only and L against the stationary-only reference.

    References are synthesized from the scenario's target subsets on the
    full scene's gate, in the field matching S (complex: baseband model;
    real: down-ramped model).  Each is synthesized and scored SCORE_ROWS
    rows at a time, so no full-size array is added to S and L.
    """
    S, L = np.asarray(decomposition.S), np.asarray(decomposition.L)
    synth = synthesize_baseband_direct if np.iscomplexobj(S) else synthesize_downramped
    # pin the full scene's gate so subset matrices share the column grid
    t0, t1 = fast_time_gate(scenario)
    grid = SamplingGrid(delta_t=scenario.sampling.delta_t, gate_start=t0, gate_end=t1)
    pinned = replace(scenario, sampling=grid)
    s_error, s_cosine = _score(S, synth, pinned.moving_only())
    l_error, _ = _score(L, synth, pinned.stationary_only())
    return SeparationMetrics(s_error=s_error, l_error=l_error, s_cosine=s_cosine,
                             residual=decomposition.residual)
