import ast
import math
import sys
import tracemalloc
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

import sarlrs
from sarlrs.analysis import (NarrowbandViolated, analytic_l1,
                             empirical_eta_bounds, gaussian_decay_fit, l1_norm,
                             model_spectrum, nuclear_velocity_exponent,
                             separation_metrics, spectrum)
from sarlrs.errors import InsufficientSweep
from sarlrs.eta import ApertureParams, conventional_eta
from sarlrs.rpca import RpcaConfig, decompose
from sarlrs.simulate import synthesize_baseband_direct, synthesize_downramped

from conftest import make_scenario, moving_target, stationary_target


def test_l1_norm_basics():
    assert l1_norm(np.zeros((4, 4))) == 0.0
    assert l1_norm(np.ones((3, 3))) == 9.0
    assert l1_norm(np.exp(1j * np.array([[0.3, 1.1], [2.0, -0.4]]))) == pytest.approx(4.0)


def test_analytic_l1_matches_measurement():
    sc = make_scenario([stationary_target()])
    params = ApertureParams.from_scenario(sc, [0.0, 0.0, 0.0])
    bb = l1_norm(synthesize_baseband_direct(sc))
    orig = l1_norm(synthesize_downramped(sc))
    assert abs(bb - analytic_l1(params, "baseband")) / bb <= 0.02
    assert abs(orig - analytic_l1(params, "original")) / orig <= 0.02


def test_analytic_l1_ratio_is_pi_over_two():
    sc = make_scenario()
    params = ApertureParams.from_scenario(sc, [0.0, 0.0, 0.0])
    ratio = analytic_l1(params, "baseband") / analytic_l1(params, "original")
    assert ratio == pytest.approx(math.pi / 2, rel=1e-14)


def test_analytic_l1_rejects_unknown_regime():
    params = ApertureParams.from_scenario(make_scenario(), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        analytic_l1(params, "bogus")


def test_l1_is_velocity_independent():
    stat = make_scenario([stationary_target()])
    mov = make_scenario([moving_target(15.0)])
    a = l1_norm(synthesize_baseband_direct(stat))
    b = l1_norm(synthesize_baseband_direct(mov))
    assert abs(a - b) / a <= 0.02


def test_narrowband_warning():
    sc = make_scenario(carrier_hz=5e7)  # omega_0 / B = 5
    params = ApertureParams.from_scenario(sc, [0.0, 0.0, 0.0])
    with pytest.warns(NarrowbandViolated):
        analytic_l1(params, "original",
                    carrier_angular_frequency=sc.pulse.carrier_angular_frequency)


def test_spectrum_rank_one():
    rep = spectrum(np.outer([1.0, 2.0], [3.0, 4.0, 5.0]))
    assert rep.effective_support == 1
    assert rep.singular_values[1] <= 1e-12 * rep.singular_values[0]
    assert spectrum(np.zeros((2, 3))).effective_support == 0


def test_spectrum_energy_identity():
    rng = np.random.default_rng(0)
    wide_complex = rng.standard_normal((30, 400)) + 1j * rng.standard_normal((30, 400))
    tall_real = rng.standard_normal((300, 20)) * np.logspace(0, -6, 20)
    DB = synthesize_baseband_direct(make_scenario([moving_target(15.0)]))
    for M in (DB, wide_complex, tall_real):
        rep = spectrum(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert np.max(np.abs(rep.singular_values - ref)) <= 1e-13 * ref[0]
        assert rep.frobenius_norm**2 == pytest.approx(np.linalg.norm(M) ** 2, rel=1e-8)
        assert rep.nuclear_norm == pytest.approx(rep.singular_values.sum(), rel=1e-12)


def test_only_rpca_calls_the_svd():
    # every reported spectrum goes through rpca.singular_values
    src = Path(sarlrs.__file__).parent
    callers = sorted(f.name for f in src.glob("*.py") if "linalg.svd" in f.read_text())
    assert callers == ["rpca.py"]


def test_only_baseband_calls_the_fft():
    # the band is decided, and extracted from D, in one module
    src = Path(sarlrs.__file__).parent
    callers = sorted(f.name for f in src.glob("*.py")
                     if any(name in f.read_text() for name in ("np.fft", "numpy.fft")))
    assert callers == ["baseband.py"]


def _imports(path):
    """Every module a source file imports, a relative import as sarlrs.<name>."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            yield from (f"sarlrs.{node.module or a.name}" for a in node.names)


def test_package_imports_only_stdlib_numpy_and_itself():
    # scipy is often installed, so a stray import of it would pass every other test
    src = Path(sarlrs.__file__).parent
    imports = {f.name: set(_imports(f)) for f in src.glob("*.py")}
    allowed = sys.stdlib_module_names | {"numpy", "sarlrs"}
    foreign = {name: sorted(m for m in mods if m.split(".")[0] not in allowed)
               for name, mods in imports.items()}
    assert foreign == {name: [] for name in imports}
    # rpca takes eta as a number: it imports no eta model, and so no scenario
    assert {m for m in imports["rpca.py"] if m.startswith("sarlrs")} == {"sarlrs.errors"}


def test_spectrum_gaussian_decay():
    sc = make_scenario([moving_target(60.0, (5.8, 7.29, 0.0))], ds=0.015,
                       platform_velocity=(0.0, 300.0, 0.0))
    rep = spectrum(synthesize_baseband_direct(sc))
    slope, r2 = gaussian_decay_fit(rep.singular_values, rep.effective_support)
    assert slope < 0
    assert r2 >= 0.9


def test_model_spectrum_tracks_measurement():
    sc = make_scenario([moving_target(60.0, (5.8, 7.29, 0.0))], ds=0.015,
                       platform_velocity=(0.0, 300.0, 0.0))
    params = ApertureParams.from_scenario(sc, sc.targets[0].velocity)
    sig = spectrum(synthesize_baseband_direct(sc)).singular_values
    # leading singular value within a factor 2 of the closed form
    assert 0.5 <= model_spectrum(params, sig.size)[0] / sig[0] <= 2.0


def test_diagonal_limit_nuclear_norm():
    # idealized trace: Gram matrix (alpha/N) * I_N, every singular value
    # sqrt(alpha/N), nuclear norm sqrt(alpha * N): square-root growth in N
    alpha = 3.0
    for N in (4, 16, 64):
        M = math.sqrt(alpha / N) * np.eye(N)
        rep = spectrum(M)
        assert rep.nuclear_norm == pytest.approx(math.sqrt(alpha * N), rel=1e-12)


def test_velocity_exponent_in_band():
    sc = make_scenario(ds=0.015, platform_velocity=(0.0, 300.0, 0.0))
    out = nuclear_velocity_exponent(sc, [5.8, 7.29, 0.0], np.geomspace(6.0, 60.0, 6))
    assert 0.4 <= out["beta"] <= 0.55
    assert abs(out["frobenius_slope"]) <= 0.05
    assert np.all(np.diff(out["nuclear"]) > 0)


def test_velocity_exponent_needs_a_decade():
    sc = make_scenario()
    with pytest.raises(InsufficientSweep):
        nuclear_velocity_exponent(sc, [0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])


def test_frobenius_and_nuclear_match_baseband_relations():
    sc = make_scenario([stationary_target(), moving_target(15.0)])
    D = synthesize_downramped(sc)
    DB = synthesize_baseband_direct(sc)
    assert np.linalg.norm(D) ** 2 / np.linalg.norm(DB) ** 2 == pytest.approx(0.5, abs=0.01)
    nuc = lambda M: np.linalg.svd(M, compute_uv=False).sum()
    assert abs(nuc(D) - nuc(DB)) / nuc(DB) <= 0.05


def test_two_copy_spectrum_relation():
    sc = make_scenario([moving_target(60.0, (5.8, 7.29, 0.0))], ds=0.015,
                       platform_velocity=(0.0, 300.0, 0.0))
    sig = spectrum(synthesize_baseband_direct(sc))
    mu = spectrum(synthesize_downramped(sc))
    half = max(2, sig.effective_support // 2)
    for k in range(half):
        expected = 0.25 * sig.singular_values[k // 2] ** 2
        assert mu.singular_values[k] ** 2 == pytest.approx(expected, rel=0.1)


def test_empirical_bounds_monotone_and_admissible():
    stat = synthesize_baseband_direct(make_scenario([stationary_target()]))
    maxima = []
    for v in (5.0, 10.0, 20.0, 40.0):
        DB = synthesize_baseband_direct(make_scenario([moving_target(v)]))
        maxima.append(empirical_eta_bounds(stat, DB).eta_max)
    assert all(b >= a for a, b in zip(maxima, maxima[1:]))
    b15 = empirical_eta_bounds(
        stat, synthesize_baseband_direct(make_scenario([moving_target(15.0)])))
    assert b15.eta_min < b15.eta_max


def test_eta_min_insensitive_to_stationary_count():
    # needs enough aperture that the stationary rows decorrelate and enough
    # spacing that the pulse strips resolve; otherwise nuclear mass adds
    # incoherently and the ratio drifts with the count
    values = []
    for count in (1, 4, 7, 10):
        xs = np.linspace(-120, 120, count) if count > 1 else [0.0]
        targets = [stationary_target((x, 3.0 * ((i % 3) - 1), 0.0))
                   for i, x in enumerate(xs)]
        DB = synthesize_baseband_direct(
            make_scenario(targets, n=300, ds=0.045,
                          platform_velocity=(0.0, 300.0, 0.0)))
        values.append(empirical_eta_bounds(DB, DB).eta_min)
    spread = (max(values) - min(values)) / values[0]
    assert spread < 0.2


def test_nuclear_over_l1_scale_invariance():
    sc = make_scenario([moving_target(15.0)])
    DB = synthesize_baseband_direct(sc)
    a = empirical_eta_bounds(DB, DB)
    b = empirical_eta_bounds(13.0 * DB, 13.0 * DB)
    assert a.eta_min == pytest.approx(b.eta_min, rel=1e-12)


def test_separation_metrics_perfect_split():
    # targets far enough apart in range that their pulse strips resolve; the
    # clutter outshines the mover, as in the shipped scenes
    sc = make_scenario([stationary_target((-50.0, -4.0, 0.0), reflectivity=2.0),
                        moving_target(15.0, (80.0, 10.0, 0.0))])
    from dataclasses import replace
    from sarlrs.scenario import SamplingGrid
    from sarlrs.simulate import fast_time_gate
    grid = SamplingGrid(sc.sampling.delta_t, *fast_time_gate(sc))
    pinned = replace(sc, sampling=grid)
    mov = synthesize_baseband_direct(pinned.moving_only())
    stat = synthesize_baseband_direct(pinned.stationary_only())
    DB = synthesize_baseband_direct(sc)
    score = lambda S, L: separation_metrics(SimpleNamespace(S=S, L=L, residual=0.0), sc)
    m = score(mov, stat)
    assert m.s_error == 0.0 and m.l_error == 0.0
    assert m.s_cosine == pytest.approx(1.0, abs=1e-12)
    for factor in (-0.3, 3.0):  # scaled copies, whose unclamped cosine rounds past 1
        c = score(factor * mov, stat)  # the cosine is |.| and clamped to 1
        assert c.s_cosine == 1.0
        assert c.s_error == pytest.approx(abs(factor - 1.0), rel=1e-12)
    z = score(np.zeros_like(mov), DB)  # nothing found
    assert z.s_error == 1.0 and z.s_cosine is None
    d = score(DB, np.zeros_like(DB))  # all of D_B in S
    assert d.s_error > 1


def test_separation_metrics_hold_one_reference_at_a_time(scaled_scenario):
    # each reference is synthesized and scored SCORE_ROWS rows at a time (a
    # 16-row block is 0.16 of the matrix); a whole reference pushes this past 1
    DB = synthesize_baseband_direct(scaled_scenario)
    split = SimpleNamespace(S=DB, L=DB, residual=0.0)
    tracemalloc.start()
    try:
        separation_metrics(split, scaled_scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * DB.nbytes


def test_separation_metrics_of_a_complex_split_match_whole_references(scaled_scenario):
    from dataclasses import replace
    from sarlrs.scenario import SamplingGrid
    from sarlrs.simulate import fast_time_gate
    sc = scaled_scenario
    DB = synthesize_baseband_direct(sc)
    dec = decompose(DB, RpcaConfig(eta=conventional_eta(*DB.shape), tol=1e-4))
    pinned = replace(sc, sampling=SamplingGrid(sc.sampling.delta_t, *fast_time_gate(sc)))
    mov = synthesize_baseband_direct(pinned.moving_only())
    stat = synthesize_baseband_direct(pinned.stationary_only())
    assert mov.shape[0] % sarlrs.analysis.SCORE_ROWS  # the last block is partial
    norm = np.linalg.norm
    expected = [norm(dec.S - mov) / norm(mov), norm(dec.L - stat) / norm(stat),
                abs(np.vdot(dec.S, mov)) / (norm(dec.S) * norm(mov))]
    got = separation_metrics(dec, sc)
    assert [got.s_error, got.l_error, got.s_cosine] == pytest.approx(expected, rel=1e-12)
    assert got.residual == dec.residual


def test_separation_metrics_of_a_real_split_use_down_ramped_references(monkeypatch):
    from dataclasses import replace
    from sarlrs.scenario import SamplingGrid
    from sarlrs.simulate import fast_time_gate
    sc = make_scenario([stationary_target((-50.0, -4.0, 0.0)),
                        moving_target(15.0, (80.0, 10.0, 0.0))])
    D = synthesize_downramped(sc)
    dec = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    pinned = replace(sc, sampling=SamplingGrid(sc.sampling.delta_t, *fast_time_gate(sc)))
    mov = synthesize_downramped(pinned.moving_only())
    stat = synthesize_downramped(pinned.stationary_only())
    norm = np.linalg.norm
    expected = [norm(dec.S - mov) / norm(mov), norm(dec.L - stat) / norm(stat),
                abs(np.vdot(dec.S, mov)) / (norm(dec.S) * norm(mov))]
    monkeypatch.setattr(sarlrs.analysis, "synthesize_baseband_direct",
                        lambda sc: pytest.fail("a real split took complex references"))
    got = separation_metrics(dec, sc)
    assert [got.s_error, got.l_error, got.s_cosine] == pytest.approx(expected, rel=1e-12)
    assert got.residual == dec.residual
    assert got.s_error <= 0.05
