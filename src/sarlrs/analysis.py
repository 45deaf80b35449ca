"""Norm and spectrum diagnostics for SAR data matrices.

Brute-force l1/Frobenius/nuclear evaluations, their closed-form estimates,
empirical eta bounds from class-representative matrices, and the
separation-quality metrics used to score a low-rank plus sparse split.
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
MASK_REL = 1e-3                # separation masks: entries above 1e-3 of per-matrix max


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
    capture: float    # energy of the moving-target reference found in S
    leakage: float    # fraction of S supported on the stationary traces
    residual: float

    def as_dict(self) -> dict:
        return {"capture": self.capture, "leakage": self.leakage,
                "residual": self.residual}


def _support_mask(M, shape) -> np.ndarray:
    """Entries of M above MASK_REL times its largest modulus (none for a zero M)."""
    if not np.any(M):
        return np.zeros(shape, bool)
    mag = np.abs(M)
    return mag > MASK_REL * np.max(mag)


def _capture(S, moving_reference) -> float:
    """Energy of the moving reference found in S, on the reference's support."""
    mov = np.asarray(moving_reference)
    mov_energy = float(np.linalg.norm(mov) ** 2)
    mask = _support_mask(mov, S.shape)
    return float(np.linalg.norm(S[mask]) ** 2) / mov_energy if mov_energy > 0 else 0.0


def _leakage(S, stationary_reference) -> float:
    """Fraction of S's norm on the stationary reference's support."""
    mask = _support_mask(np.asarray(stationary_reference), S.shape)
    s_norm = float(np.linalg.norm(S))
    return float(np.linalg.norm(S[mask])) / s_norm if s_norm > 0 else 0.0


def separation_metrics_from_matrices(S, moving_reference, stationary_reference,
                                     residual: float = 0.0) -> SeparationMetrics:
    S = np.asarray(S)
    return SeparationMetrics(capture=_capture(S, moving_reference),
                             leakage=_leakage(S, stationary_reference), residual=residual)


def separation_metrics(decomposition, scenario: Scenario) -> SeparationMetrics:
    """Score a decomposition against per-class reference matrices.

    References are synthesized from the scenario's moving-only and
    stationary-only target subsets, in the field matching S (complex:
    baseband model; real: down-ramped model).  Each is scored and freed
    before the next is synthesized, so one reference is held at a time.
    """
    S = np.asarray(decomposition.S)
    synth = synthesize_baseband_direct if np.iscomplexobj(S) else synthesize_downramped
    # pin the full scene's gate so subset matrices share the column grid
    t0, t1 = fast_time_gate(scenario)
    grid = SamplingGrid(delta_t=scenario.sampling.delta_t, gate_start=t0, gate_end=t1)
    pinned = replace(scenario, sampling=grid)
    return SeparationMetrics(capture=_capture(S, synth(pinned.moving_only())),
                             leakage=_leakage(S, synth(pinned.stationary_only())),
                             residual=decomposition.residual)
