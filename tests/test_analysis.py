import ast
import math
import sys
import tracemalloc
from importlib import resources
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

import sarlrs
from sarlrs.analysis import (_grid_norms, empirical_eta_bounds, gaussian_decay_fit, l1_norm,
                             nuclear_velocity_exponent,
                             separation_metrics, solve_grid_metrics, spectrum)
from sarlrs.baseband import from_solve_grid, solve_grid_scale, to_solve_grid
from sarlrs.errors import ConfigError, InsufficientSweep
from sarlrs.eta import (ApertureParams, NarrowbandViolated, analytic_l1, conventional_eta,
                        eta_bounds_baseband, model_spectrum)
from sarlrs.rpca import RpcaConfig, decompose
from sarlrs.scenario import Scenario, Target, load_scenario
from sarlrs.simulate import fast_times, synthesize_baseband_direct, synthesize_downramped

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
    # a zero-length side gives an empty spectrum, not an IndexError
    for empty in (np.zeros((0, 5)), np.zeros((5, 0))):
        rep = spectrum(empty)
        assert rep.singular_values.size == rep.effective_support == 0
        assert rep.nuclear_norm == rep.frobenius_norm == 0.0


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


def _foreign_private_names(path):
    """Every underscore name a source file imports, or reads as an attribute of a
    name it imported (`module._name`), dunders aside."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if private(alias.name):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                yield ast.unparse(node)


def test_no_module_uses_another_modules_private_names():
    # each module's underscore names are its own: a number one module computes
    # is reached through a public function, so the owner can change how
    src = Path(sarlrs.__file__).parent
    uses = {f.name: sorted(_foreign_private_names(f)) for f in src.glob("*.py")}
    assert {name: found for name, found in uses.items() if found} == {}


def _number_type_tests(path):
    """Every isinstance call in a source file that tests for bool, numbers.Real or
    numbers.Integral."""
    rule_types = {"bool", "numbers.Real", "numbers.Integral", "Real", "Integral"}
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            types = node.args[1]
            types = types.elts if isinstance(types, ast.Tuple) else [types]
            if rule_types & {ast.unparse(t) for t in types}:
                yield ast.unparse(node)


def test_only_errors_decides_what_a_number_count_or_vector_is():
    # errors holds one rule each for a finite number, a count and a 3-vector, and
    # every other module calls them, so two modules cannot disagree on a value
    src = Path(sarlrs.__file__).parent
    uses = {f.name: sorted(_number_type_tests(f)) for f in src.glob("*.py")
            if f.name != "errors.py"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_only_errors_decides_what_a_matrix_is():
    # errors.matrix is the one 2-D test: rpca, baseband, imaging and matrixio each
    # had their own, with four messages, and some public functions had none
    src = Path(sarlrs.__file__).parent
    uses = {f.name: sorted(ast.unparse(node) for node in ast.walk(ast.parse(f.read_text()))
                           if isinstance(node, ast.Compare) and "ndim" in ast.unparse(node))
            for f in src.glob("*.py") if f.name != "errors.py"}
    assert {name: found for name, found in uses.items() if found} == {}


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


@pytest.mark.parametrize("speeds", [[0.0, 1.0, 10.0, 100.0], [1.5, 2.4, 3.8, np.inf],
                                    [-15.0, 1.5, 2.4, 3.8], [1.5, np.nan, 3.8, 15.0]],
                         ids=["zero", "inf", "negative", "nan"])
def test_velocity_exponent_rejects_speeds_before_synthesis(monkeypatch, speeds):
    # [0, 1, 10, 100] spans an infinite ratio, so only the finite, positive check
    # stops it before a degenerate fit
    monkeypatch.setattr(sarlrs.analysis, "synthesize_downramped",
                        lambda sc: pytest.fail("a bad sweep was synthesized"))
    with pytest.raises(InsufficientSweep):
        nuclear_velocity_exponent(make_scenario(), [0.0, 0.0, 0.0], speeds)


@pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0),
                                       (1.0, 0.0), (1.0, 0.0, 0.0, 0.0)],
                         ids=["zero", "nan", "inf", "2-vector", "4-vector"])
def test_velocity_exponent_rejects_a_bad_direction_before_synthesis(monkeypatch, direction):
    monkeypatch.setattr(sarlrs.analysis, "synthesize_downramped",
                        lambda sc: pytest.fail("a bad direction was synthesized"))
    with pytest.raises(ConfigError):
        nuclear_velocity_exponent(make_scenario(), [0.0, 0.0, 0.0], [1.5, 2.4, 3.8, 15.0],
                                  direction)


def _shipped(regime):
    with resources.as_file(resources.files("sarlrs").joinpath(f"data/{regime}.json")) as p:
        sc = load_scenario(p)
    mover = next(t for t in sc.targets if not t.stationary)
    slow = Target(position=mover.position,
                  velocity=1.5 * mover.velocity / np.linalg.norm(mover.velocity))
    return sc, next(t for t in sc.targets if t.stationary), slow


@pytest.mark.parametrize("regime", ["scaled", "gotcha"])
@pytest.mark.parametrize("which", ["stationary", "mover-1.5"])
def test_grid_norms_match_the_gate_length_matrices(regime, which):
    # the solve grid's norms against gate-length spectra and l1 norms of the
    # directly synthesized D_B and of D
    sc, stat, slow = _shipped(regime)
    single = sc.with_targets([stat if which == "stationary" else slow])
    DB, D = synthesize_baseband_direct(single), synthesize_downramped(single)
    rep = spectrum(DB)
    expected = [rep.nuclear_norm, rep.frobenius_norm, l1_norm(DB),
                spectrum(D).nuclear_norm / l1_norm(D)]
    assert list(_grid_norms(single, original=True)) == pytest.approx(expected, rel=1e-7)
    assert _grid_norms(single)[3] is None


def test_grid_norms_peak_memory_on_the_gotcha_mover():
    # one synthesis of D, then D and its half-spectrum while the solve grid is
    # cut out; two syntheses (D and D_B) measured 3.0x D's bytes
    sc, _, _ = _shipped("gotcha")
    single = sc.with_targets([next(t for t in sc.targets if not t.stationary)])
    d_bytes = 8 * single.platform.pulse_count * fast_times(single).size
    tracemalloc.start()
    try:
        _grid_norms(single, original=True)
        peak = tracemalloc.get_traced_memory()[1] / d_bytes
    finally:
        tracemalloc.stop()
    assert peak <= 2.5


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


def _block_loop_scores(X, sc, subset):
    """One class's scores from `separation_metrics` as one block loop, the form
    they had before `_score` was shared."""
    from dataclasses import replace
    from sarlrs.scenario import SamplingGrid
    from sarlrs.simulate import fast_time_gate
    synth = synthesize_baseband_direct if np.iscomplexobj(X) else synthesize_downramped
    t0, t1 = fast_time_gate(sc)
    grid = SamplingGrid(delta_t=sc.sampling.delta_t, gate_start=t0, gate_end=t1)
    reference = subset(replace(sc, sampling=grid))
    rr = xx = xr = dd = 0.0
    for first in range(0, reference.platform.pulse_count, 16):
        rows = slice(first, first + 16)
        R, Xb = synth(reference, rows=rows), X[rows]
        rr += np.vdot(R, R).real
        xx += np.vdot(Xb, Xb).real
        xr += np.vdot(Xb, R)
        np.subtract(R, Xb, out=R)
        dd += np.vdot(R, R).real
    error = math.sqrt(dd / rr) if rr > 0 else None
    cosine = min(1.0, float(abs(xr) / math.sqrt(xx * rr))) if xx * rr > 0 else None
    return error, cosine


@pytest.mark.parametrize("field", ["complex", "real"])
def test_separation_metrics_keep_the_block_loop_bytes(scaled_scenario, field):
    # sharing `_score` kept every numpy operation and its order: the gate-length
    # scores `gotcha-rpca` and direct callers read are unchanged to the bit
    sc = scaled_scenario
    D = synthesize_baseband_direct(sc) if field == "complex" else synthesize_downramped(sc)
    dec = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-4))
    (s_error, s_cosine), (l_error, _) = (_block_loop_scores(X, sc, subset) for X, subset in
                                         ((dec.S, Scenario.moving_only),
                                          (dec.L, Scenario.stationary_only)))
    got = separation_metrics(dec, sc).as_dict()
    assert got == {"s_error": s_error, "l_error": l_error, "s_cosine": s_cosine,
                   "residual": dec.residual}
    assert all(type(v) is float for v in got.values())


def _solve_grid_split(sc):
    """DB_K of the scene's real D, its split at the analytic eta*, and the band."""
    band = (sc.pulse, sc.sampling.delta_t)
    DB_K = to_solve_grid(synthesize_downramped(sc), *band)
    mover = next(t for t in sc.targets if not t.stationary)
    eta = eta_bounds_baseband(ApertureParams.from_scenario(sc, mover.velocity)).eta_star
    scale = solve_grid_scale(fast_times(sc).size, *band)
    return DB_K, decompose(DB_K, RpcaConfig(eta=eta * scale)), band


def test_solve_grid_metrics_match_the_gate_length_scores(scaled_scenario):
    # the references on the solve grid are the real model's, mapped: the scores
    # of the split mapped back to the gate agree to the band's 6B tail
    sc = scaled_scenario
    DB_K, dec, band = _solve_grid_split(sc)
    t = fast_times(sc)
    gate = SimpleNamespace(S=from_solve_grid(dec.S, *band, t.size, t0=t[0]),
                           L=from_solve_grid(dec.L, *band, t.size, t0=t[0]),
                           residual=dec.residual)
    expected = separation_metrics(gate, sc).as_dict()
    got = solve_grid_metrics(dec, DB_K, sc).as_dict()
    assert None not in got.values()
    assert got == pytest.approx(expected, rel=1e-9)
    assert got["residual"] == dec.residual


def test_solve_grid_metrics_of_a_mover_only_scene(single_mover_scenario):
    # D holds only the mover, so C_K = DB_K - M_K is exactly 0: no l_error
    sc = single_mover_scenario
    DB_K = to_solve_grid(synthesize_downramped(sc), sc.pulse, sc.sampling.delta_t)
    split = SimpleNamespace(S=DB_K, L=np.zeros_like(DB_K), residual=0.0)
    m = solve_grid_metrics(split, DB_K, sc)
    assert m.l_error is None
    assert (m.s_error, m.s_cosine) == (0.0, 1.0)


def test_solve_grid_metrics_hold_no_gate_length_matrix(scaled_scenario):
    # the moving-only reference is synthesized and mapped SCORE_ROWS rows at a time
    sc = scaled_scenario
    DB_K, dec, _ = _solve_grid_split(sc)
    tracemalloc.start()
    try:
        solve_grid_metrics(dec, DB_K, sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * sc.platform.pulse_count * fast_times(sc).size * 8
