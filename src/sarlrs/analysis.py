"""Norm and spectrum diagnostics for SAR data matrices.

Brute-force l1/Frobenius/nuclear evaluations, their closed-form estimates,
empirical eta bounds from class-representative matrices, and the scores of
a low-rank plus sparse split: the relative Frobenius errors of S against
the moving-only and of L against the stationary-only reference matrix,
and the cosine between S and the moving-only reference.
Every spectrum the package reports comes from `rpca.singular_values`.

The CLI's diagnostics are computed here, and the CLI only writes them.
`eta_sweeps` gives `sarlrs analyze`'s two tables and its summary.  Their
ratios come from `_grid_norms`: one synthesis of a scene's
real D, mapped onto the K-column solve grid of `baseband.to_solve_grid`,
gives D_B's norms and D's nuclear norm with no spectrum wider than 2K.
`solve_grid_spectra` and `solve_grid_metrics` give `pipeline`'s spectra.csv
and metrics.json from a split on that grid, and `separation_metrics` scores
a gate-length split; both scores sum the same four products in `_score`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baseband import from_solve_grid, solve_grid_scale, to_solve_grid
from .errors import ConfigError, InsufficientSweep, vector3
from .eta import ApertureParams, EtaBounds, eta_bounds_baseband
from .rpca import singular_values
from .scenario import Scenario, Target
from .simulate import (fast_time_gate, fast_times, synthesize_baseband_direct,
                       synthesize_downramped)

EFFECTIVE_SUPPORT_REL = 1e-3   # sigma_k above 1e-3 * sigma_0 count as support
SCORE_ROWS = 16                # rows per synthesized reference block
SWEEP_SPEEDS = (1.5, 2.4, 3.8, 6.0, 9.5, 15.0)  # m/s: `eta_sweeps`' decade of speeds


def l1_norm(M) -> float:
    """Elementwise absolute sum (complex moduli for complex input)."""
    return float(np.sum(np.abs(M)))


@dataclass
class SpectrumReport:
    singular_values: np.ndarray
    nuclear_norm: float
    frobenius_norm: float
    effective_support: int


def spectrum(M) -> SpectrumReport:
    """Singular values of M with the norms they give; raises SvdFailure."""
    sig = singular_values(M)
    n_eff = int(np.sum(sig > EFFECTIVE_SUPPORT_REL * sig.max(initial=0.0)))
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


def _row_blocks(rows: int):
    """Slices of SCORE_ROWS consecutive rows, in order, covering `rows` rows."""
    return (slice(first, first + SCORE_ROWS) for first in range(0, rows, SCORE_ROWS))


def _grid_norms(scenario: Scenario, original: bool = False) -> tuple[float | None, ...]:
    """D_B's nuclear, Frobenius and l1 norms, and D's nuclear / l1 if `original`, from
    one synthesis of the scene's real D.

    D is mapped onto its K-column solve grid DB_K (`baseband.to_solve_grid`).
    DB_K's spectrum times `solve_grid_scale` is D_B's, and D's comes from the
    real [Re DB_K, Im DB_K] (`_downramped_values`), so no spectrum is wider
    than 2K columns.  D_B's l1 norm needs its gate-length samples: DB_K is
    mapped back with `from_solve_grid` SCORE_ROWS rows at a time, after D is
    dropped.  D_B is the band `to_baseband` keeps, so each
    value is the directly synthesized D_B's to its 6B tail (1e-7 relative).
    """
    D = synthesize_downramped(scenario)
    band, m = (scenario.pulse, scenario.sampling.delta_t), D.shape[1]
    d_l1 = l1_norm(D) if original else None
    DB_K = to_solve_grid(D, *band)
    del D
    scale = solve_grid_scale(m, *band)
    rep = spectrum(DB_K)
    # t0 = 0: the mixer's unit phases change no modulus
    l1 = sum(l1_norm(from_solve_grid(DB_K[rows], *band, m, t0=0.0))
             for rows in _row_blocks(DB_K.shape[0]))
    ratio = float(_downramped_values(DB_K, scale).sum()) / d_l1 if original else None
    return scale * rep.nuclear_norm, scale * rep.frobenius_norm, l1, ratio


def _downramped_values(DB_K: np.ndarray, scale: float) -> np.ndarray:
    """The real D's singular values from its solve grid DB_K = `to_solve_grid(D)`:
    those of the real n x 2K [Re DB_K, Im DB_K] times `solve_grid_scale` / sqrt(2),
    which equal D's to the band's 6B tail."""
    return scale / math.sqrt(2.0) * singular_values(np.hstack([DB_K.real, DB_K.imag]))


def nuclear_velocity_exponent(scenario: Scenario, position, speeds,
                              direction=(1.0, 0.0, 0.0)) -> dict:
    """Log-log growth rate of the nuclear norm with target speed.

    Synthesizes a single-target matrix per speed (the target at `position`
    moving along `direction`) and fits D_B's nuclear and Frobenius norms
    against speed (`_grid_norms`).  Each speed's D_B "l1" norm is returned
    with them, so nuclear / l1 is its empirical baseband eta_max, and so is
    the real D's nuclear / l1 ratio ("original_ratio"), its original one.
    Raises `InsufficientSweep`, before any synthesis, unless there are at
    least 4 finite, positive speeds spanning a decade, and `ConfigError`
    unless `direction` is a finite, nonzero 3-vector.
    """
    speeds = np.sort(np.asarray(speeds, dtype=float))
    if (speeds.size < 4 or not np.all((speeds > 0) & (speeds < np.inf))
            or speeds[-1] / speeds[0] < 10.0):
        raise InsufficientSweep("need >= 4 finite, positive speeds spanning at least one decade")
    direction = vector3(direction, "direction")
    if not 0 < np.linalg.norm(direction) < np.inf:
        raise ConfigError("direction must be a finite, nonzero 3-vector")
    direction = direction / np.linalg.norm(direction)
    nuclear, frobenius, l1, ratio = np.array([
        _grid_norms(scenario.with_targets([Target(position=position, velocity=v * direction)]),
                    original=True)
        for v in speeds]).T
    logs = np.log(speeds)
    return {
        "speeds": speeds,
        "nuclear": nuclear,
        "frobenius": frobenius,
        "l1": l1,
        "original_ratio": ratio,
        "beta": float(np.polyfit(logs, np.log(nuclear), 1)[0]),
        "frobenius_slope": float(np.polyfit(logs, np.log(frobenius), 1)[0]),
    }


def eta_sweeps(scenario: Scenario, mover: Target,
               stationary: Target) -> tuple[list[dict], list[dict], dict]:
    """`sarlrs analyze`'s velocity sweep, stationary-count sweep and summary.

    The velocity sweep moves `mover` at each of SWEEP_SPEEDS along its own
    direction (`nuclear_velocity_exponent`): per speed, D_B's nuclear and
    Frobenius norms, the empirical band's eta_max, dynamic range and eta* in
    both regimes, with `stationary` alone giving eta_min, and the analytic
    eta*.  The count sweep puts 1 to 10 stationary targets within 20 m of
    `stationary` (seeded, so every run draws the same) and gives each set's
    baseband eta_min and its eta* against `mover`'s eta_max.  The summary
    holds the fit's beta and Frobenius slope and the sweep's range of N B dt,
    N the analytic column support.  Each of the 18 scenes is synthesized
    once, and every ratio comes from `_grid_norms`.
    """
    direction = mover.velocity / np.linalg.norm(mover.velocity)

    def ratios(targets, original=False):
        """D_B's nuclear / l1 and, if `original`, D's: one synthesis of the scene."""
        nuclear, _, l1, ratio = _grid_norms(scenario.with_targets(targets), original)
        return nuclear / l1, ratio

    def empirical(eta_min, eta_max):
        return EtaBounds(eta_min, eta_max, regime="empirical", column_support=math.nan)

    eta_min_bb, eta_min_orig = ratios([stationary], original=True)
    sweep = nuclear_velocity_exponent(scenario, mover.position, SWEEP_SPEEDS, direction)
    velocity_rows, n_b_dt = [], []
    for v, nuclear, frobenius, l1, ratio in zip(sweep["speeds"], sweep["nuclear"],
                                                sweep["frobenius"], sweep["l1"],
                                                sweep["original_ratio"]):
        bb, orig = empirical(eta_min_bb, nuclear / l1), empirical(eta_min_orig, ratio)
        params = ApertureParams.from_scenario(scenario, v * direction)
        analytic = eta_bounds_baseband(params)
        n_b_dt.append(analytic.column_support * params.bandwidth_parameter * params.delta_t)
        velocity_rows.append({
            "speed_mps": v,
            "nuclear": nuclear,
            "frobenius": frobenius,
            "eta_max_empirical_baseband": bb.eta_max,
            "eta_max_empirical_original": orig.eta_max,
            "dynamic_range_baseband": bb.dynamic_range,
            "dynamic_range_original": orig.dynamic_range,
            "eta_star_empirical": bb.eta_star,
            "eta_star_analytic": analytic.eta_star,
        })

    rng = np.random.default_rng(7)
    eta_max = ratios([mover])[0]
    count_rows = []
    for count in range(1, 11):
        targets = [Target(position=stationary.position + np.array([dx, dy, 0.0]),
                          velocity=[0.0, 0.0, 0.0])
                   for dx, dy in rng.uniform(-20, 20, size=(count, 2))]
        eta_min = ratios(targets)[0]
        count_rows.append({"stationary_count": count, "eta_min_empirical": eta_min,
                           "eta_star_empirical": empirical(eta_min, eta_max).eta_star})

    summary = {"beta": sweep["beta"], "n_b_dt": [min(n_b_dt), max(n_b_dt)],
               "frobenius_slope": sweep["frobenius_slope"]}
    return velocity_rows, count_rows, summary


def empirical_eta_bounds(stationary_matrix, moving_matrix) -> EtaBounds:
    """Nuclear-to-l1 ratios ||M||_* / ||M||_1 of single-target class representatives."""
    return EtaBounds(*(spectrum(M).nuclear_norm / l1_norm(M)
                       for M in (stationary_matrix, moving_matrix)),
                     regime="empirical", column_support=math.nan)


@dataclass
class SeparationMetrics:
    s_error: float | None    # ||S - M_ref||_F / ||M_ref||_F
    l_error: float | None    # ||L - C_ref||_F / ||C_ref||_F
    s_cosine: float | None   # |<S, M_ref>| / (||S||_F ||M_ref||_F), in [0, 1]
    residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def _pinned(scenario: Scenario) -> Scenario:
    """The scene with its resolved gate pinned, so its class subsets share its columns."""
    t0, t1 = fast_time_gate(scenario)
    return replace(scenario, sampling=replace(scenario.sampling, gate_start=t0, gate_end=t1))


def _score(blocks) -> tuple[float | None, float | None]:
    """(||X - R|| / ||R||, |<X, R>| / (||X|| ||R||)) summed over the (X, R) row blocks
    `blocks` yields, None for a zero denominator.  Each block of R is overwritten
    with R - X, so no full-size temporary is made.
    """
    rr = xx = xr = dd = 0.0
    for Xb, R in blocks:
        rr += np.vdot(R, R).real
        xx += np.vdot(Xb, Xb).real
        xr += np.vdot(Xb, R)
        np.subtract(R, Xb, out=R)
        dd += np.vdot(R, R).real
        del R  # before the next block is made
    error = math.sqrt(dd / rr) if rr > 0 else None
    # rounding lifts the cosine of X = c R up to a few ulp past 1
    cosine = min(1.0, float(abs(xr) / math.sqrt(xx * rr))) if xx * rr > 0 else None
    return error, cosine


def separation_metrics(decomposition, scenario: Scenario) -> SeparationMetrics:
    """Score S against the moving-only and L against the stationary-only reference.

    Each reference R is one target class of the scene, synthesized on the
    full scene's gate in the field of the matrix it scores (complex: baseband
    model; real: down-ramped model), so the split must be gate-length.  S is
    scored first.  R is synthesized SCORE_ROWS rows at a time and scored by
    `_score` block by block, so no full-size array is added to S and L.
    `solve_grid_metrics` scores a split of the solve grid instead.
    """
    pinned = _pinned(scenario)
    scores = []
    for X, reference in ((np.asarray(decomposition.S), pinned.moving_only()),
                         (np.asarray(decomposition.L), pinned.stationary_only())):
        synth = synthesize_baseband_direct if np.iscomplexobj(X) else synthesize_downramped
        scores.append(_score((X[rows], synth(reference, rows=rows))
                             for rows in _row_blocks(reference.platform.pulse_count)))
    (s_error, s_cosine), (l_error, _) = scores
    return SeparationMetrics(s_error=s_error, l_error=l_error, s_cosine=s_cosine,
                             residual=decomposition.residual)


def solve_grid_metrics(decomposition, DB_K: np.ndarray, scenario: Scenario) -> SeparationMetrics:
    """`separation_metrics` of a split of DB_K = `to_solve_grid(D)`, on its K columns.

    M_K, the moving-only reference on that grid, is `to_solve_grid` of the
    down-ramped moving-only scene on the full scene's gate, synthesized and
    mapped SCORE_ROWS rows at a time, so no gate-length matrix is held.  The
    stationary-only one is DB_K - M_K: D is the sum of its targets and the
    map is linear, so it is exactly 0 on a scene with no stationary target.
    The map scales X and R alike, so each score is `separation_metrics` of
    the split mapped back with `from_solve_grid` to the band's 6B tail: 4.2e-11
    relative on `scaled`, 2.5e-14 on `gotcha`.
    """
    band = (scenario.pulse, scenario.sampling.delta_t)
    movers = _pinned(scenario).moving_only()
    M_K = np.empty_like(DB_K)
    for rows in _row_blocks(DB_K.shape[0]):
        M_K[rows] = to_solve_grid(synthesize_downramped(movers, rows=rows), *band)
    C_K = DB_K - M_K
    s_error, s_cosine = _score([(decomposition.S, M_K)])
    l_error, _ = _score([(decomposition.L, C_K)])
    return SeparationMetrics(s_error=s_error, l_error=l_error, s_cosine=s_cosine,
                             residual=decomposition.residual)


def solve_grid_spectra(decomposition, DB_K: np.ndarray, scenario: Scenario) -> dict:
    """The singular values of D, DB and a split's L and S on the gate's grid, descending,
    from DB_K = `to_solve_grid(D)` and the split of DB_K.

    DB's, L's and S's are their solve-grid spectra times `solve_grid_scale`,
    exactly those of the matrices `from_solve_grid` maps them to; D's are
    those of the real n x 2K [Re DB_K, Im DB_K] over sqrt(2) (`_downramped_values`),
    D's own to the band's 6B tail.
    """
    scale = solve_grid_scale(fast_times(scenario).size, scenario.pulse,
                             scenario.sampling.delta_t)
    return {"D": _downramped_values(DB_K, scale),
            **{name: scale * singular_values(M)
               for name, M in (("DB", DB_K), ("L", decomposition.L), ("S", decomposition.S))}}
