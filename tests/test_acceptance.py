"""End-to-end acceptance gate.

Each test exercises one shipped claim at a pinned tolerance and prints a
PASS/FAIL line (run with -s to see them all).  Scenes are sized so the whole
module runs in a few minutes on a laptop.
"""

import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from sarlrs.analysis import (empirical_eta_bounds, gaussian_decay_fit, l1_norm,
                             analytic_l1, nuclear_velocity_exponent,
                             separation_metrics, spectrum)
from sarlrs.baseband import from_baseband, to_baseband
from sarlrs.eta import (ApertureParams, conventional_eta, eta_bounds_baseband,
                        eta_bounds_original)
from sarlrs.imaging import ImagingGrid, migrate, peak_report, value_at
from sarlrs.rpca import RpcaConfig, decompose, decompose_windowed
from sarlrs.scenario import load_scenario
from sarlrs.simulate import (fast_times, synthesize_baseband_direct,
                             synthesize_downramped)

from conftest import make_scenario, moving_target, stationary_target

FAST = dict(ds=0.015, platform_velocity=(0.0, 300.0, 0.0))


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    return ok


def nuclear(M):
    return float(np.linalg.svd(M, compute_uv=False).sum())


@pytest.fixture(scope="module")
def mover_scenes():
    """Five single-mover scenes used by the Frobenius/nuclear identities."""
    return [make_scenario([moving_target(v)], **FAST)
            for v in (10.0, 15.0, 20.0, 25.0, 50.0)]


@pytest.fixture(scope="module")
def fig2(scaled_scenario):
    sc = scaled_scenario
    D = synthesize_downramped(sc)
    t = fast_times(sc)
    DB = to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=t[0])
    return sc, D, DB


def test_criterion_01_l1_analytics():
    sc = make_scenario([stationary_target()])
    params = ApertureParams.from_scenario(sc, [0.0, 0.0, 0.0])
    bb = l1_norm(synthesize_baseband_direct(sc))
    orig = l1_norm(synthesize_downramped(sc))
    err_bb = abs(bb - analytic_l1(params, "baseband")) / bb
    err_or = abs(orig - analytic_l1(params, "original")) / orig
    err_ratio = abs(bb / orig - math.pi / 2) / (math.pi / 2)
    ok = err_bb <= 0.02 and err_or <= 0.02 and err_ratio <= 0.02
    assert report("01 l1-analytics", ok,
                  f"errors bb {err_bb:.4f} orig {err_or:.4f} ratio {err_ratio:.4f}")


def test_criterion_02_frobenius_identity(mover_scenes):
    ratios = []
    for sc in mover_scenes:
        D = synthesize_downramped(sc)
        DB = synthesize_baseband_direct(sc)
        ratios.append(np.linalg.norm(D) ** 2 / np.linalg.norm(DB) ** 2)
    ok = all(abs(r - 0.5) <= 0.01 for r in ratios)
    assert report("02 frobenius-identity", ok,
                  "ratios " + " ".join(f"{r:.4f}" for r in ratios))


def test_criterion_03_nuclear_equality(mover_scenes):
    devs = []
    for sc in mover_scenes:
        n_or = nuclear(synthesize_downramped(sc))
        n_bb = nuclear(synthesize_baseband_direct(sc))
        devs.append(abs(n_or - n_bb) / n_bb)
    ok = all(d <= 0.05 for d in devs)
    assert report("03 nuclear-equality", ok,
                  "deviations " + " ".join(f"{d:.4f}" for d in devs))


def test_criterion_04_velocity_exponent():
    sc = make_scenario(**FAST)
    out = nuclear_velocity_exponent(sc, [5.8, 7.29, 0.0], np.geomspace(6.0, 60.0, 6))
    ok = 0.4 <= out["beta"] <= 0.55 and abs(out["frobenius_slope"]) <= 0.05
    assert report("04 velocity-exponent", ok,
                  f"beta {out['beta']:.3f} frobenius slope {out['frobenius_slope']:.4f}")


def test_criterion_05_spectrum_shape():
    sc = make_scenario([moving_target(60.0, (5.8, 7.29, 0.0))], **FAST)
    bb = spectrum(synthesize_baseband_direct(sc))
    _, r2 = gaussian_decay_fit(bb.singular_values, bb.effective_support)
    mu = spectrum(synthesize_downramped(sc))
    half = max(2, bb.effective_support // 2)
    copy_err = max(abs(mu.singular_values[k] ** 2
                       - 0.25 * bb.singular_values[k // 2] ** 2)
                   / (0.25 * bb.singular_values[k // 2] ** 2)
                   for k in range(half))
    ok = r2 >= 0.9 and copy_err <= 0.10
    assert report("05 spectrum-shape", ok,
                  f"R^2 {r2:.4f} two-copy max rel err {copy_err:.4f}")


def test_criterion_06_rpca_exact_recovery():
    rng = np.random.default_rng(0)
    n = 200
    r = math.ceil(0.05 * n)
    L0 = rng.standard_normal((n, r)) @ rng.standard_normal((r, n)) / math.sqrt(n)
    S0 = np.zeros((n, n))
    mask = rng.random((n, n)) < 0.05
    S0[mask] = rng.uniform(-1, 1, size=int(mask.sum()))
    out = decompose(L0 + S0, RpcaConfig(eta=conventional_eta(n, n)))
    err_l = np.linalg.norm(out.L - L0) / np.linalg.norm(L0)
    err_s = np.linalg.norm(out.S - S0) / np.linalg.norm(S0)
    ok = err_l <= 1e-5 and err_s <= 1e-5 and out.residual <= 1e-7 and out.iterations <= 60
    assert report("06 rpca-exact-recovery", ok,
                  f"errL {err_l:.2e} errS {err_s:.2e} residual {out.residual:.2e} "
                  f"iterations {out.iterations}")


def test_criterion_07_baseband_losslessness(fig2):
    sc, D, DB = fig2
    t = fast_times(sc)
    back = from_baseband(DB, sc.pulse, sc.sampling.delta_t, t0=t[0])
    err = np.max(np.abs(back - D)) / np.max(np.abs(D))
    ok = err <= 1e-6
    assert report("07 baseband-losslessness", ok, f"max rel err {err:.2e}")


def test_criterion_08_separation_quality(fig2):
    sc, _, DB = fig2
    conv = RpcaConfig(eta=conventional_eta(*DB.shape))
    conv1 = separation_metrics(decompose_windowed(DB, 1, conv), sc)
    conv5 = separation_metrics(decompose_windowed(DB, 5, conv), sc)
    star = eta_bounds_baseband(
        ApertureParams.from_scenario(sc, [15.0, 0.0, 0.0])).eta_star
    opt1 = separation_metrics(decompose(DB, RpcaConfig(eta=star)), sc)
    ok_a = conv5.s_error < conv1.s_error
    ok_b = opt1.s_error <= 0.05 and opt1.s_cosine >= 0.99
    assert report(
        "08 separation-quality", ok_a and ok_b,
        f"S error conv w5 {conv5.s_error:.3f} < conv w1 {conv1.s_error:.3f}; "
        f"eta* w1 S error {opt1.s_error:.4f} cosine {opt1.s_cosine:.4f}")


def test_criterion_09_imaging(imaging_scenario):
    sc = imaging_scenario
    D = synthesize_downramped(sc)
    t = fast_times(sc)
    DB = to_baseband(D, sc.pulse, sc.sampling.delta_t, t0=t[0])
    star = eta_bounds_baseband(
        ApertureParams.from_scenario(sc, [15.0, 0.0, 0.0])).eta_star
    dec = decompose(DB, RpcaConfig(eta=star))
    mover = [-110.0, -3.0]
    grid = ImagingGrid(center=[-110.0, -3.0, 0.0], extent_x=20.0, extent_y=20.0,
                       nx=41, ny=41)  # 1 m cells
    img_s = migrate(dec.S, sc, grid, hypothesis_velocity=[15.0, 0.0, 0.0], source="S")
    img_d = migrate(DB, sc, grid, hypothesis_velocity=[0.0, 0.0, 0.0], source="D")
    peak = peak_report(img_s)[0]
    cell = 2 * 20.0 / 40
    within = (abs(peak["location"][0] - mover[0]) <= cell
              and abs(peak["location"][1] - mover[1]) <= cell)
    pbr_s = value_at(img_s, mover) / np.median(img_s.magnitude())
    pbr_d = value_at(img_d, mover) / np.median(img_d.magnitude())
    ok = within and pbr_s > pbr_d
    assert report("09 imaging", ok,
                  f"peak at {peak['location']} PBR S {pbr_s:.1f} vs D {pbr_d:.4f}")


def test_criterion_10_eta_diagnostics():
    # 201 pulses at 300 m/s.  This is not an asymptotic regime: the stationary
    # representative's real matrix still has two near-equal singular values
    # (its two carrier copies overlap, r_stat = 0.9961), and a longer aperture
    # does not remove that overlap (see 10b).
    scene = dict(ds=0.045, n=200, platform_velocity=(0.0, 300.0, 0.0))
    stat = make_scenario([stationary_target()], **scene)
    D_stat = synthesize_downramped(stat)
    DB_stat = synthesize_baseband_direct(stat)
    r_stat = nuclear(D_stat) / nuclear(DB_stat)
    speeds = np.geomspace(1.5, 15.0, 6)
    emax_bb, dyn_bb, dyn_or, star_emp, star_ana = [], [], [], [], []
    r_mov, analytic_tie = [], []
    for v in speeds:
        sc = make_scenario([moving_target(v)], **scene)
        DB = synthesize_baseband_direct(sc)
        D = synthesize_downramped(sc)
        bb = empirical_eta_bounds(DB_stat, DB)
        orig = empirical_eta_bounds(D_stat, D)
        emax_bb.append(bb.eta_max)
        dyn_bb.append(bb.dynamic_range)
        dyn_or.append(orig.dynamic_range)
        r_mov.append(nuclear(D) / nuclear(DB))
        star_emp.append(math.sqrt(bb.eta_min * bb.eta_max))
        params = ApertureParams.from_scenario(sc, sc.targets[0].velocity)
        analytic_tie.append(math.isclose(eta_bounds_original(params).dynamic_range,
                                         eta_bounds_baseband(params).dynamic_range,
                                         rel_tol=1e-14))
        star_ana.append(eta_bounds_baseband(params).eta_star)

    monotone = all(b > a for a, b in zip(emax_bb, emax_bb[1:]))
    ok_mono = report("10a eta-max-monotone", monotone,
                     "eta_max " + " ".join(f"{e:.4f}" for e in emax_bb))

    # 10b: baseband against original dynamic range, in the form the eta model
    # promises.  D = Re{exp(-1j w0 t) D_B} is the mean of two complex-conjugate
    # carrier copies, each with the nuclear norm of D_B, so by the triangle
    # inequality r = |D|_* / |D_B|_* <= 1, with equality only when the copies
    # are orthogonal.  The l1 ratio |D|_1 / |D_B|_1 is 2/pi for every
    # representative (criterion 01) and cancels, so the margin, baseband over
    # original, is sqrt(r_stat / r_mov): inside [sqrt(r_stat), 1/sqrt(r_mov)]
    # exactly when the two l1 ratios are equal (here to within 2e-5).
    # eta_bounds_original takes r = 1 and so predicts a tie; the sign of
    # margin - 1 is second order, set by which representative's copies overlap
    # more.  Measured: r_stat = 0.9961, r_mov = 0.9985-0.9998, margins
    # 0.9982-0.9988.  At n=400 the margins are 0.9986-0.9987 and 1.0002 at
    # 15 m/s, so a longer aperture does not make the baseband margin exceed 1.
    margins = [b / o for b, o in zip(dyn_bb, dyn_or)]
    bounded = all(math.sqrt(r_stat) <= m <= 1.0 / math.sqrt(r)
                  for m, r in zip(margins, r_mov))
    ok_dyn = report("10b dynamic-range-tie", all(analytic_tie) and bounded,
                    f"analytic tie {sum(analytic_tie)}/{len(analytic_tie)}"
                    f" r_stat {r_stat:.4f} r_mov "
                    + " ".join(f"{r:.4f}" for r in r_mov)
                    + " baseband/original "
                    + " ".join(f"{m:.4f}" for m in margins))

    factors = [a / e for a, e in zip(star_ana, star_emp)]
    tracked = all(0.5 <= f <= 2.0 for f in factors)
    ok_track = report("10c eta-star-analytic-vs-empirical", tracked,
                      "ratios " + " ".join(f"{f:.3f}" for f in factors))

    assert ok_mono and ok_track
    assert ok_dyn


def test_criterion_11_gotcha_end_to_end():
    # The shipped X-band scene: D_B is 237 x 32000 complex.  Solved at eta* to
    # tol 1e-2, the benchmark's gotcha-rpca setting (11 iterations).
    with resources.as_file(resources.files("sarlrs").joinpath("data/gotcha.json")) as p:
        sc = load_scenario(p)
    DB = to_baseband(synthesize_downramped(sc), sc.pulse, sc.sampling.delta_t,
                     t0=fast_times(sc)[0])
    mover = next(t for t in sc.targets if not t.stationary)
    star = eta_bounds_baseband(ApertureParams.from_scenario(sc, mover.velocity)).eta_star
    # the solve and its scores hold at most T, L, S's kept entries and then
    # L and S, beside the caller's DB (allocated before the trace starts)
    tracemalloc.start()
    try:
        dec = decompose(DB, RpcaConfig(eta=star, tol=1e-2))
        metrics = separation_metrics(dec, sc)
        peak = tracemalloc.get_traced_memory()[1] / DB.nbytes
    finally:
        tracemalloc.stop()
    # 0.1 m cells over every target: X-band detail aliases on a 1 m grid
    grid = ImagingGrid(center=sc.reference_point, extent_x=12.0, extent_y=12.0,
                       nx=241, ny=241)
    peaks = peak_report(migrate(dec.S, sc, grid, hypothesis_velocity=mover.velocity,
                                source="S"))
    split = np.linalg.norm(dec.S - DB) / np.linalg.norm(DB)
    cell = 2 * 12.0 / 240
    at_mover = bool(peaks) and all(abs(peaks[0]["location"][k] - mover.position[k]) <= cell
                                   for k in (0, 1))
    ok = (dec.converged and dec.residual <= 1e-2 and dec.rank >= 1 and split > 1e-3
          and all(math.isfinite(v) for v in metrics.as_dict().values()) and at_mover
          and peak <= 2.5)
    assert report("11 gotcha-end-to-end", ok,
                  f"iterations {dec.iterations} residual {dec.residual:.2e} "
                  f"traced peak {peak:.2f} x DB.nbytes "
                  f"rank {dec.rank} ||S - DB||/||DB|| {split:.3f} "
                  f"S-image peaks {len(peaks)}, first at "
                  f"{np.round(peaks[0]['location'], 2).tolist() if peaks else None}")
