"""Down-ramped SAR data matrix synthesis for point-target scenes.

The platform emits one pulse per slow time s_j = j*ds, j = -n/2..n/2, and
records the down-ramped return on a fast-time grid t_l.  Each target
contributes a modulated Gaussian centered at its differential round-trip
delay relative to the reference point (start-stop approximation):

    D[j, l]   = sum_i  sig_i cos(w0 (t_l - dtau_i(s_j))) exp(-B^2 (t_l - dtau_i(s_j))^2 / 2)
    D_B[j, l] = sum_i  sig_i exp(1j w0 dtau_i(s_j))      exp(-B^2 (t_l - dtau_i(s_j))^2 / 2)

D_B is the analytic complex-baseband model; Re{exp(-1j w0 t_l) D_B} == D.

Synthesis is band-limited but exact.  The envelope exp(-B^2 arg^2 / 2)
underflows to exactly 0.0 in float64 once |B arg| > ENVELOPE_ZERO (~38.6),
so each target is evaluated only on a per-row window of columns around
t = dtau_i(s_j), ENVELOPE_ZERO/B to each side plus one guard column (about
4 900 of gotcha's 32 000 columns).  Inside the window the same expression is
evaluated on the same t values as a dense evaluation; outside it every term
would be +-0.0, and adding a signed zero changes no entry.  The result is
therefore byte-identical to evaluating every target on the whole grid.  A
window at least as wide as the gate is cut to it, so each row is then whole.

The down-ramped carrier is evaluated by angle addition,
cos(w0 t) cos(w0 dtau) + sin(w0 t) sin(w0 dtau), from per-call tables of the
columns the windows reach and of each row's delay, so no cosine is taken per
sample.  It rounds the phases w0 t and w0 dtau, where cos(w0 (t - dtau))
rounds w0 (t - dtau): the two differ by a few times 2^-53 w0 |t| per target,
at most 3.1e-13 on `gotcha` (|D| up to 1.98) and 4.9e-14 on `scaled`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GateTooNarrow
from .scenario import C_LIGHT, GATE_MARGIN_OVER_B, Scenario, Target

# exp(x) is exactly +0.0 in float64 once x < ln(2^-1074) - ln 2 = -1075 ln 2
# ~ -745.13 (below half the smallest subnormal), so the envelope
# exp(-(B arg)^2 / 2) is exactly 0.0 wherever |B arg| > ENVELOPE_ZERO ~ 38.60.
ENVELOPE_ZERO = math.sqrt(2.0 * 1075.0 * math.log(2.0))


def _norm3(dx, dy, dz) -> np.ndarray:
    """sqrt(dx^2 + dy^2 + dz^2) of broadcasting components.

    Summed as (dx*dx + dy*dy) + dz*dz, the order in which numpy reduces a
    length-3 axis, so this equals np.linalg.norm of the stacked components
    over that axis bit for bit without its generic reduction.
    """
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def _distance(a, b) -> np.ndarray:
    """|a - b| over the last axis of length 3."""
    d = a - b
    return _norm3(d[..., 0], d[..., 1], d[..., 2])


def _delay(scenario: Scenario, r: np.ndarray, dx, dy, dz) -> np.ndarray:
    """(2/c) * (|(dx, dy, dz)| - |r - rho_o|): the differential delay of the points
    at offsets (dx, dy, dz) from the platform position r."""
    return (_norm3(dx, dy, dz) - _distance(r, scenario.reference_point)) / (C_LIGHT / 2)


def travel_time(scenario: Scenario, s: float, point) -> float:
    """Round-trip time from the platform at slow time s to a fixed point."""
    r = scenario.platform.position_at(s)
    return 2.0 * float(_distance(r, np.asarray(point, dtype=float))) / C_LIGHT


def differential_delay(scenario: Scenario, points, s) -> np.ndarray:
    """(2/c) * (|r(s) - p| - |r(s) - rho_o|) for points p at slow times s.

    `points` broadcasts against the platform positions r(s): one point per
    slow time (shape s.shape + (3,)) or many points at one slow time.
    """
    r = scenario.platform.position_at(s)
    d = r - points
    return _delay(scenario, r, d[..., 0], d[..., 1], d[..., 2])


def grid_delays(scenario: Scenario, xs: np.ndarray, ys: np.ndarray, z: float,
                velocity, s: float) -> np.ndarray:
    """differential_delay at one slow time s of the (ny, nx) grid of points
    (xs[k], ys[m], z) advected to p + velocity * s.

    Each axis is advected and differenced with the platform once, and the
    squares are summed by broadcasting in `differential_delay`'s order, so
    the result equals differential_delay(scenario, advect(points, velocity,
    s), s) of the row-major (y, x) points bit for bit.
    """
    r = scenario.platform.position_at(s)
    v = np.asarray(velocity, dtype=float)
    dx = r[0] - (xs + v[0] * s)
    dy = r[1] - (ys + v[1] * s)
    dz = r[2] - (z + v[2] * s)
    return _delay(scenario, r, dx, dy[:, None], dz)


def delta_tau(scenario: Scenario, target: Target, s) -> np.ndarray | float:
    """Differential delay of a target relative to the reference point.

    (2/c) * (|r(s) - rho(s)| - |r(s) - rho_o|), with the target advected to
    rho(s) = rho(0) + v_t s.
    """
    out = differential_delay(scenario, target.position_at(s), s)
    return out if out.ndim else float(out)


def _all_delays(scenario: Scenario) -> np.ndarray:
    """dtau_i(s_j) for every target i (axis 0) and slow time s_j (axis 1)."""
    s = scenario.slow_times()
    return np.array([delta_tau(scenario, t, s) for t in scenario.targets])


def fast_time_gate(scenario: Scenario) -> tuple[float, float]:
    """Resolve the fast-time gate, auto-sizing it from the scene if not given."""
    grid = scenario.sampling
    if grid.gate_start is not None:
        return grid.gate_start, grid.gate_end
    B = scenario.pulse.bandwidth_parameter
    margin = GATE_MARGIN_OVER_B / B
    if scenario.targets:
        delays = _all_delays(scenario)
        return float(delays.min()) - margin, float(delays.max()) + margin
    return -margin, margin


def _smooth_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m: FFTs at such lengths avoid large prime factors.

    Each 3^b 5^c below the best length so far is doubled up to m, starting from
    the power of two >= m.
    """
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            n = p35
            while n < m:
                n *= 2
            best = min(best, n)
            p35 *= 3
        p5 *= 5
    return best


def fast_times(scenario: Scenario) -> np.ndarray:
    """The gate's samples t0 + l dt up to its end, and on to a 5-smooth count for cheap
    FFTs: 2992 -> 3000 on the shipped `scaled` gate, 31674 -> 32000 on `gotcha`."""
    t0, t1 = fast_time_gate(scenario)
    dt = scenario.sampling.delta_t
    m = _smooth_length(int(math.floor((t1 - t0) / dt)) + 1)
    return t0 + np.arange(m) * dt


def _check_gate(scenario: Scenario, delays: np.ndarray, t: np.ndarray) -> None:
    support = 4.0 / scenario.pulse.bandwidth_parameter
    for i, row in enumerate(delays):
        if row.min() - support < t[0] or row.max() + support > t[-1]:
            raise GateTooNarrow(i)


def _synthesize(scenario: Scenario, baseband: bool, rows: slice) -> np.ndarray:
    """sum_i sig_i carrier_i exp(-B^2 (t - dtau_i)^2 / 2) on `rows`: the carrier is
    cos(w0 (t - dtau_i)) by angle addition, or exp(1j w0 dtau_i) for `baseband`.

    Every row is summed over the targets in the same order whichever rows are
    asked for, so a slice of rows is byte-identical to those rows of the whole.
    """
    t = fast_times(scenario)
    cols = t.size
    n_rows = len(range(*rows.indices(scenario.platform.pulse_count)))
    M = np.zeros((n_rows, cols), dtype=complex if baseband else float)
    delays = _all_delays(scenario)
    _check_gate(scenario, delays, t)
    if not (scenario.targets and n_rows):
        return M
    w0 = scenario.pulse.carrier_angular_frequency
    B = scenario.pulse.bandwidth_parameter
    dt = scenario.sampling.delta_t
    # with Z = ENVELOPE_ZERO and a = (dtau - Z/B - t0)/dt, columns floor(a) - 1 to
    # floor(a) + ceil(2 Z/(B dt)) + 1 hold every |t - dtau| <= Z/B and one guard column
    # each side; a window wider than the gate is cut to it, and then starts at column 0
    width = min(math.ceil(2.0 * ENVELOPE_ZERO / (B * dt)) + 3, cols)
    delays = delays[:, rows]
    starts = np.clip(np.floor((delays - ENVELOPE_ZERO / B - t[0]) / dt).astype(np.intp) - 1,
                     0, cols - width)
    lo = int(starts.min())
    curvature = -B * B / 2.0  # the envelope is exp(curvature arg^2)
    if not baseband:
        wt, wd = w0 * t[lo:int(starts.max()) + width], w0 * delays
        cos_t, sin_t = np.cos(wt), np.sin(wt)
        cos_d, sin_d = np.cos(wd).tolist(), np.sin(wd).tolist()
    for i, (tgt, dtau, first) in enumerate(zip(scenario.targets, delays, starts)):
        # one row at a time: a row's temporaries (tens of kB) are reused from the
        # heap, while freeing (rows, width) ones would raise glibc's dynamic mmap
        # threshold and with it the peak RSS of the stages that follow
        for j, c in enumerate(first.tolist()):
            arg = t[c:c + width] - dtau[j]
            if baseband:
                carrier = np.exp(1j * w0 * dtau[j])
            else:
                k = c - lo
                carrier = cos_t[k:k + width] * cos_d[i][j] + sin_t[k:k + width] * sin_d[i][j]
            M[j, c:c + width] += tgt.reflectivity * (carrier * np.exp(curvature * arg * arg))
    return M


def synthesize_downramped(scenario: Scenario, rows: slice = slice(None)) -> np.ndarray:
    """Real down-ramped data matrix, shape (n+1, len(fast_times)), or its `rows`."""
    return _synthesize(scenario, False, rows)


def synthesize_baseband_direct(scenario: Scenario, rows: slice = slice(None)) -> np.ndarray:
    """Analytic complex-baseband matrix, or its `rows`; oracle for the FFT filtering path."""
    return _synthesize(scenario, True, rows)


def column_support(scenario: Scenario, target: Target) -> int:
    """Number of fast-time columns a target's trace sweeps over the aperture."""
    dtau = delta_tau(scenario, target, scenario.slow_times())
    span = float(np.max(dtau) - np.min(dtau))
    return max(1, math.ceil(span / scenario.sampling.delta_t))
