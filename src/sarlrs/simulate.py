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


def _distance(a, b) -> np.ndarray:
    """|a - b| over the last axis of length 3.

    Summed as (dx*dx + dy*dy) + dz*dz, the order in which numpy reduces a
    length-3 axis, so this equals np.linalg.norm(a - b, axis=-1) bit for bit
    without its generic reduction.
    """
    d = a - b
    dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
    return np.sqrt(dx * dx + dy * dy + dz * dz)


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
    d_p = _distance(r, points)
    d_o = _distance(r, scenario.reference_point)
    return 2.0 * (d_p - d_o) / C_LIGHT


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
    """The smallest 2^a 3^b 5^c >= m: FFTs at such lengths avoid large prime factors."""
    n = m
    while pow(30, n, n):  # n is 5-smooth exactly when it divides 30^n
        n += 1
    return n


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


def _synthesize(scenario: Scenario, dtype, carrier) -> np.ndarray:
    """sum_i sig_i carrier(w0, t - dtau_i, dtau_i) exp(-B^2 (t - dtau_i)^2 / 2)."""
    t = fast_times(scenario)
    cols = t.size
    M = np.zeros((scenario.platform.pulse_count, cols), dtype=dtype)
    delays = _all_delays(scenario)
    _check_gate(scenario, delays, t)
    w0 = scenario.pulse.carrier_angular_frequency
    B = scenario.pulse.bandwidth_parameter
    dt = scenario.sampling.delta_t
    # with Z = ENVELOPE_ZERO and a = (dtau - Z/B - t0)/dt, columns floor(a) - 1 to
    # floor(a) + ceil(2 Z/(B dt)) + 1 hold every |t - dtau| <= Z/B and one guard column
    # each side; a window wider than the gate is cut to it, and then starts at column 0
    width = min(math.ceil(2.0 * ENVELOPE_ZERO / (B * dt)) + 3, cols)
    for tgt, dtau in zip(scenario.targets, delays):
        starts = np.floor((dtau - ENVELOPE_ZERO / B - t[0]) / dt).astype(np.intp) - 1
        # one row at a time: a row's temporaries (tens of kB) are reused from the
        # heap, while freeing (rows, width) ones would raise glibc's dynamic mmap
        # threshold and with it the peak RSS of the stages that follow
        for j, c in enumerate(np.clip(starts, 0, cols - width).tolist()):
            arg = t[c:c + width] - dtau[j]
            M[j, c:c + width] += tgt.reflectivity * (carrier(w0, arg, dtau[j])
                                                     * np.exp(-B * B * arg * arg / 2.0))
    return M


def synthesize_downramped(scenario: Scenario) -> np.ndarray:
    """Real down-ramped data matrix, shape (n+1, len(fast_times))."""
    return _synthesize(scenario, float, lambda w0, arg, dtau: np.cos(w0 * arg))


def synthesize_baseband_direct(scenario: Scenario) -> np.ndarray:
    """Analytic complex-baseband matrix; oracle for the FFT filtering path."""
    return _synthesize(scenario, complex,
                       lambda w0, arg, dtau: np.exp(1j * w0 * dtau))


def column_support(scenario: Scenario, target: Target) -> int:
    """Number of fast-time columns a target's trace sweeps over the aperture."""
    dtau = delta_tau(scenario, target, scenario.slow_times())
    span = float(np.max(dtau) - np.min(dtau))
    return max(1, math.ceil(span / scenario.sampling.delta_t))
