import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sarlrs import rpca
from sarlrs.analysis import spectrum
from sarlrs.baseband import (from_baseband, from_solve_grid, passband_bins, to_baseband,
                             to_solve_grid)
from sarlrs.errors import ConfigError, SvdFailure, matrix
from sarlrs.eta import conventional_eta
from sarlrs.imaging import ImagingGrid, migrate
from sarlrs.matrixio import write_matrix
from sarlrs.rpca import (MU_CAP_FACTOR, RHO, Decomposition, RpcaConfig,
                         decompose, decompose_windowed, singular_value_threshold,
                         singular_values, soft_threshold, spectral_norm)
from sarlrs.simulate import fast_times

from conftest import make_scenario, stationary_target


def svd_threshold_reference(M, tau):
    U, sig, Vh = np.linalg.svd(M, full_matrices=False)
    return (U * np.maximum(sig - tau, 0.0)) @ Vh


def decompose_reference(D, config):
    """The inexact ALM loop over whole arrays, one full-size pass per line."""
    D = np.asarray(D)
    eta = config.eta
    norm2 = spectral_norm(D)
    norm_f = np.linalg.norm(D)
    d_max = np.max(np.abs(D))
    mu = rpca.MU0_FACTOR / norm2
    mu_cap = MU_CAP_FACTOR * mu
    Y = D / max(norm2, d_max / eta)
    S = np.zeros_like(D)
    W = np.empty_like(Y)
    T = np.empty_like(Y)
    converged = False
    for it in range(1, config.max_iter + 1):
        np.divide(Y, mu, out=W)
        W += D
        L = singular_value_threshold(np.subtract(W, S, out=T), 1.0 / mu)[0]
        S = soft_threshold(np.subtract(W, L, out=T), eta / mu)
        np.subtract(D, L, out=T)
        T -= S
        residual = np.linalg.norm(T) / norm_f
        Y += np.multiply(T, mu, out=W)
        if residual <= config.tol and it >= 2:
            converged = True
            break
        mu = min(RHO * mu, mu_cap)
    sig = singular_values(L)
    rank = int(np.sum(sig > sig[0] * 1e-9)) if sig.size and sig[0] > 0 else 0
    return Decomposition(
        L=L, S=S, iterations=it, residual=float(residual), rank=rank,
        sparse_count=np.count_nonzero(S),
        converged=converged)


def decompose_t_state(D, config):
    """decompose's loop over whole arrays: the SVT input T is the state, not Y.

    With T = Y/mu + D - S_old, the shrink input is V = W - L = T + S_old - L
    and the next SVT input is T' = (mu/mu') (V - S) + D - S.  The first T is
    s D, thresholded with D's spectrum scaled by s.
    """
    D = np.ascontiguousarray(D)
    eta = config.eta
    sig, U = rpca._gram_spectrum(rpca._gram(rpca._short_side(D)[0]))
    norm2 = float(sig[-1])
    norm_f = np.linalg.norm(D)
    mu = rpca.MU0_FACTOR / norm2
    mu_cap = MU_CAP_FACTOR * mu
    scale = 1.0 + 1.0 / (max(norm2, np.max(np.abs(D)) / eta) * mu)
    T = D * scale
    L = rpca._threshold_product(T, scale * sig, U, 1.0 / mu)[0]
    S = np.zeros_like(D)
    converged = False
    for it in range(1, config.max_iter + 1):
        if it > 1:
            L = singular_value_threshold(T, 1.0 / mu)[0]
        mu_next = min(RHO * mu, mu_cap)
        V = T - L
        V += S
        S = soft_threshold(V, eta / mu)
        R = D - L
        R -= S
        residual = np.linalg.norm(R) / norm_f
        V -= S
        T = V * (mu / mu_next)
        T += D
        T -= S
        if residual <= config.tol and it >= 2:
            converged = True
            break
        mu = mu_next
    sig = singular_values(L)
    rank = int(np.sum(sig > sig[0] * 1e-9)) if sig.size and sig[0] > 0 else 0
    return Decomposition(
        L=L, S=S, iterations=it, residual=float(residual), rank=rank,
        sparse_count=np.count_nonzero(S),
        converged=converged)


def low_rank_plus_sparse(n1, n2, rank, complex_, density, seed):
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    D = draw(n1, rank) @ draw(rank, n2)
    mask = rng.random((n1, n2)) < density
    D[mask] += 10.0 * draw(int(mask.sum()))
    return D


def with_spectrum(sig, n1, n2, complex_=False, seed=0):
    """An n1 x n2 matrix with the given singular values (zeros beyond them)."""
    rng = np.random.default_rng(seed)

    def basis(n):
        A = rng.standard_normal((n, len(sig)))
        if complex_:
            A = A + 1j * rng.standard_normal((n, len(sig)))
        return np.linalg.qr(A)[0]

    return (basis(n1) * np.asarray(sig, float)) @ basis(n2).conj().T


_rng = np.random.default_rng(11)
_dup = _rng.standard_normal((3, 50))
SVT_MATRICES = {
    "wide-real": _rng.standard_normal((12, 70)),
    "tall-real": _rng.standard_normal((70, 12)),
    "wide-complex": _rng.standard_normal((12, 70)) + 1j * _rng.standard_normal((12, 70)),
    # sigma from 1 to 1e-12: the Gram route alone is off by ~1e-9 at tau = 1e-9
    "graded-complex": with_spectrum(np.logspace(0, -12, 12), 12, 70, complex_=True),
    # repeated and zero rows: rank 3, eight exact zero singular values
    "rank-deficient": np.vstack([_dup, _dup, 2.0 * _dup[:1], np.zeros((2, 50)), _dup[1:]]),
}


def test_soft_threshold_zero_input():
    assert soft_threshold(0.0, 2.0) == 0.0


def test_soft_threshold_real_shrinkage():
    assert soft_threshold(2.0, 1.0) == pytest.approx(1.0)
    assert soft_threshold(-2.0, 1.0) == pytest.approx(-1.0)


def test_soft_threshold_preserves_phase():
    a = 3.0 * np.exp(1j * np.pi / 4)
    out = soft_threshold(a, 1.0)
    assert out == pytest.approx(2.0 * np.exp(1j * np.pi / 4))


def test_soft_threshold_tie_maps_to_zero():
    assert soft_threshold(1.0, 1.0) == 0.0


def test_soft_threshold_integer_input_is_shrunk_as_float():
    a = np.array([[-3, 0, 1], [2, 5, -1]])
    out = soft_threshold(a, 1.5)
    assert out.dtype == float
    assert np.array_equal(out, soft_threshold(a.astype(float), 1.5))


@pytest.mark.parametrize("eta", [-1.0, -1e-300, math.nan, 1j, complex(0.5, 0), "0.5", True],
                         ids=["negative", "tiny-negative", "nan", "imaginary", "complex", "text",
                              "true"])
def test_soft_threshold_rejects_an_eta_that_is_not_real_and_non_negative(eta):
    # -1 divided by the zero |a| it counted as kept; nan kept nothing and returned zeros;
    # True shrank by 1
    with pytest.raises(ConfigError):
        soft_threshold(np.array([0.0, 1.0]), eta)


def test_soft_threshold_at_eta_zero_and_infinity_keeps_the_formula():
    # eta = 0 is the identity and eta = inf zeroes every finite entry, signed zeros kept
    a = np.array([0.0, -0.0, 5e-324, -2.5, 1.0, np.nan])
    z = a[:5].astype(complex) * np.exp(0.3j)
    for x in (a, z):
        assert same_bytes(soft_threshold(x, 0.0), x)
        with np.errstate(all="ignore"):
            assert same_bytes(soft_threshold(x, np.inf), x * np.fmax(1 - np.inf / np.abs(x), 0))


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype, x.shape) == (y.dtype, y.shape) and \
        np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


_ETA = 0.7
_ABOVE = np.nextafter(_ETA, np.inf)
_EDGES = np.array([0.0, -0.0, _ETA, -_ETA, _ABOVE, -_ABOVE, np.inf, -np.inf, np.nan,
                   5e-324, -5e-320, 2.2e-308, 1.0, -3.5])
_Z = np.random.default_rng(12).standard_normal((9, 24)).view(complex)
_Z.real[0] = _EDGES[np.isfinite(_EDGES) | np.isnan(_EDGES)]  # complex inf * 0 warns
_Z.imag[0] = -_Z.real[0, ::-1]
SOFT_INPUTS = {
    "edges": _EDGES,
    "integer": np.array([[-3, 0, 1], [2, 5, -1]]),
    "0-d": np.array(-2.5),
    "fortran": np.asfortranarray(np.outer(_EDGES, [1.0, -0.5, 2.0])),
    "sliced-complex": _Z[::2, ::-1],
}


@pytest.mark.parametrize("order", [None, "C", "F"], ids=["new", "out-C", "out-F"])
@pytest.mark.parametrize("name", sorted(SOFT_INPUTS))
def test_soft_threshold_has_the_bytes_of_the_scale_formula(name, order):
    # a * max(1 - eta/|a|, 0) with every division taken; shrinking only the kept
    # entries must not change a byte, signed zeros and NaN included
    a = SOFT_INPUTS[name]
    with np.errstate(all="ignore"):
        ref = np.asarray(a * np.fmax(1 - _ETA / np.abs(a), 0))
    out = None if order is None else np.full(ref.shape, 7.0, ref.dtype, order=order)
    got = soft_threshold(a, _ETA, out=out)
    if out is not None and out.ndim:
        assert got is out
    assert same_bytes(got, ref)


def test_soft_threshold_keeps_entries_with_an_infinite_part():
    # |a| = inf: the scale is exactly 1, so the entry keeps its argument; the
    # complex product with the scale would give inf * 0j = NaN (and warn)
    inf = np.inf
    a = np.array([complex(inf, 0.0), complex(-inf, 2.0), complex(3.0, -inf),
                  complex(inf, inf), 0.5 + 0.0j, 2.0 - 0.0j])
    expected = a.copy()
    expected[4:] = [0.0, 1.3 - 0.0j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = soft_threshold(a, 0.7)
        out = np.full((3, 2), 7.0 + 0j, order="F")
        soft_threshold(a.reshape(3, 2), 0.7, out=out)
    assert same_bytes(got, expected)
    assert same_bytes(out, expected.reshape(3, 2))
    assert soft_threshold(np.array(complex(inf, 1.0)), 0.7) == complex(inf, 1.0)


def test_tiny_entries_raise_no_overflow():
    # dividing eta by a subnormal |a| overflows: only kept entries may be divided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shrunk = soft_threshold(np.array([5e-324, -5e-320, 1.0]), 0.7)
        D = np.zeros((6, 40))
        D[0, 0], D[1, 1] = 1.0, 5e-320
        out = decompose(D, RpcaConfig(eta=0.3))
    assert same_bytes(shrunk, np.array([0.0, -0.0, 1.0 - 0.7]))
    assert out.converged and (out.rank, out.sparse_count, out.S[0, 0]) == (0, 1, 1.0)


def test_svt_identity_at_zero_threshold():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 5))
    assert np.allclose(singular_value_threshold(M, 0.0)[0], M, atol=1e-12)


def test_svt_full_shrinkage_gives_zero():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 6))
    smax = np.linalg.svd(M, compute_uv=False)[0]
    assert not np.any(singular_value_threshold(M, smax + 1.0)[0])


def test_svt_rank_one_closed_form():
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 0.0, 0.0])
    M = 2.0 * np.outer(u, v)
    out = singular_value_threshold(M, 0.5)[0]
    assert np.allclose(out, 1.5 * np.outer(u, v), atol=1e-12)


@pytest.mark.parametrize("name", sorted(SVT_MATRICES))
@pytest.mark.parametrize("where", ["zero", "between", "guard"])
def test_svt_matches_svd_reference(name, where, monkeypatch):
    M = SVT_MATRICES[name]
    sig = np.linalg.svd(M, compute_uv=False)
    tau = {"zero": 0.0,
           "between": 0.5 * (sig[2] + sig[3]),
           "guard": 1e-9 * sig[0]}[where]  # below GRAM_MIN_TAU * sigma_max
    fallbacks, grams = [], []
    r_factor_svd, gram_spectrum = rpca._r_factor_svd, rpca._gram_spectrum
    monkeypatch.setattr(rpca, "_r_factor_svd",
                        lambda A: fallbacks.append(A.shape) or r_factor_svd(A))
    monkeypatch.setattr(rpca, "_gram_spectrum",
                        lambda G: grams.append(G.shape) or gram_spectrum(G))
    ref = svd_threshold_reference(M, tau)
    out = singular_value_threshold(M, tau)[0]
    assert out.shape == M.shape and out.dtype == M.dtype
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)
    # one spectrum per call: the route is chosen before either is taken
    assert len(fallbacks) == (0 if where == "between" else 1)
    assert len(grams) == (1 if where == "between" else 0)


SVT_OUT_INPUTS = {
    "wide-real": SVT_MATRICES["wide-real"],
    "tall-real": SVT_MATRICES["tall-real"],
    "wide-complex": SVT_MATRICES["wide-complex"],
    "tall-complex": SVT_MATRICES["wide-complex"].T.copy(),
    "wider-than-block": low_rank_plus_sparse(12, rpca.BLOCK + 5, 4, True, 0.05, seed=15),
    "taller-than-block": low_rank_plus_sparse(rpca.BLOCK + 5, 12, 4, True, 0.05, seed=16),
}


@pytest.mark.parametrize("name", sorted(SVT_OUT_INPUTS))
@pytest.mark.parametrize("where", ["between", "guard"])
def test_svt_writes_over_its_input(name, where):
    M = SVT_OUT_INPUTS[name].copy()
    sig = np.linalg.svd(M, compute_uv=False)
    tau = 0.5 * (sig[2] + sig[3]) if where == "between" else 1e-9 * sig[0]
    expected, expected_s = singular_value_threshold(M.copy(), tau)
    L, s = singular_value_threshold(M, tau, out=M)
    assert L is M
    assert np.array_equal(L, expected) and np.array_equal(s, expected_s)
    # s holds L's singular values, descending: those above the cut match the SVD's
    ref = np.linalg.svd(L, compute_uv=False)
    above = s[s > 1e-9 * s[0]]
    assert above.size == np.count_nonzero(ref > 1e-9 * ref[0])
    assert np.all(np.diff(s) <= 0)
    assert np.max(np.abs(above - ref[:above.size])) <= 1e-12 * sig[0]


@pytest.mark.parametrize("tall", [False, True], ids=["wide", "tall"])
def test_svd_only_sees_the_square_r_factor(tall, monkeypatch):
    rng = np.random.default_rng(12)
    D = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 120))
    D[rng.random(D.shape) < 0.05] += 1.0
    D = D.T.copy() if tall else D
    inputs = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **k: inputs.append(a.shape) or svd(a, **k))
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-7))
    assert out.converged
    # every SVD is an SVT step below the guard; the rank comes from SVT
    assert len(inputs) >= 2
    assert set(inputs) == {(30, 30)}


def test_r_factor_route_raises_svd_failure(monkeypatch):
    M = SVT_MATRICES["wide-complex"]
    smax = np.linalg.svd(M, compute_uv=False)[0]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("QR did not converge")

    monkeypatch.setattr(np.linalg, "qr", fail)
    with pytest.raises(SvdFailure):
        singular_value_threshold(M, 1e-9 * smax)
    with pytest.raises(SvdFailure):
        singular_values(M)


def test_gram_route_raises_svd_failure(monkeypatch):
    M = SVT_MATRICES["wide-complex"]
    sig = np.linalg.svd(M, compute_uv=False)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(SvdFailure):
        singular_value_threshold(M, 0.5 * (sig[2] + sig[3]))
    with pytest.raises(SvdFailure):
        spectral_norm(M)


_g = np.random.default_rng(13)
_GRAM_WIDE = _g.standard_normal((12, 300)) + 1j * _g.standard_normal((12, 300))
_GRAM_BLOCKS = (_g.standard_normal((12, 2 * rpca.BLOCK + 7))
                + 1j * _g.standard_normal((12, 2 * rpca.BLOCK + 7)))
GRAM_INPUTS = {
    "real": _g.standard_normal((12, 300)),
    "complex-wide": _GRAM_WIDE,
    # decompose's tall inputs reach _gram as this F-ordered transposed view
    "complex-tall": rpca._short_side(_GRAM_WIDE.T.copy())[0],
    "real-tall": rpca._short_side(_g.standard_normal((300, 12)))[0],
    "fortran": np.asfortranarray(_GRAM_WIDE),
    "zero": np.zeros((5, 9), complex),
    # three column blocks, the last 7 columns wide
    "complex-blocks": _GRAM_BLOCKS,
    "fortran-blocks": np.asfortranarray(_GRAM_BLOCKS),
}


@pytest.mark.parametrize("name", sorted(GRAM_INPUTS))
def test_gram_is_exactly_hermitian_and_matches_product(name):
    A = GRAM_INPUTS[name]
    G = rpca._gram(A)
    ref = A @ A.conj().T
    assert G.shape == ref.shape and G.dtype == ref.dtype
    assert np.array_equal(G, G.conj().T)
    assert not np.any(np.imag(G.diagonal()))
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((40, 60)) + 1j * rng.standard_normal((40, 60))
    assert spectral_norm(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0],
                                             rel=1e-6)
    # a matrix with a zero-length side has no singular value: its norm is 0, not an IndexError
    assert spectral_norm(np.zeros((0, 5))) == spectral_norm(np.zeros((5, 0))) == 0.0


@pytest.mark.parametrize("M", [
    with_spectrum([3.0, 1.0, 0.2], 90, 7, seed=1),                    # tall
    with_spectrum([3.0, 1.0, 0.2], 7, 90, complex_=True, seed=2),     # wide
    with_spectrum([1.0, 0.996, 0.5, 0.1], 40, 300, complex_=True, seed=3),
    np.zeros((5, 9)),
], ids=["tall", "wide", "gap-0.996", "zero"])
def test_spectral_norm_shapes_and_close_top_pair(M):
    ref = np.linalg.svd(M, compute_uv=False)[0]
    assert spectral_norm(M) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("shape", [(30, 200), (200, 30)])
def test_singular_values_match_svd(shape):
    M = with_spectrum(np.logspace(0, -14, 30), *shape, complex_=True, seed=4)
    ref = np.linalg.svd(M, compute_uv=False)
    out = singular_values(M)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14 * ref[0]


@pytest.mark.parametrize("shape", [(12, 6 * rpca.BLOCK + 5), (6 * rpca.BLOCK + 5, 12)],
                         ids=["wide", "tall"])
def test_r_factor_is_updated_block_by_block(shape, monkeypatch):
    M = with_spectrum(np.logspace(0, -14, 12), *shape, complex_=True, seed=6)
    sig = np.linalg.svd(M, compute_uv=False)
    rows = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, **k: rows.append(a.shape[0]) or qr(a, **k))
    tracemalloc.start()
    try:
        out = singular_values(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(out - sig)) <= 1e-14 * sig[0]
    # R = qr([R; A_c^T]) per BLOCK columns: LAPACK sees one block, not all of A
    assert rows == [rpca.BLOCK] + [12 + rpca.BLOCK] * 5 + [12 + 5]
    assert peak <= 0.5 * M.nbytes
    tau = 1e-9 * sig[0]  # below the guard: the exact route
    ref = svd_threshold_reference(M, tau)
    L = singular_value_threshold(M, tau)[0]
    assert np.linalg.norm(L - ref) <= 1e-10 * np.linalg.norm(ref)


def test_rank_counts_like_svd_just_above_cut(monkeypatch):
    # L's smallest kept singular value, 2e-9 sigma_0, sits just above the
    # 1e-9 cut, and its 17 exact zeros would read as ~1e-8 sigma_0 from the
    # eigenvalues of L L^H.
    L = with_spectrum([1.0, 0.5, 2e-9], 20, 200, complex_=True, seed=5)
    monkeypatch.setattr(rpca, "singular_value_threshold",
                        lambda M, tau, out=None: (L.copy(), np.linalg.svd(L, compute_uv=False)))
    out = decompose(L, RpcaConfig(eta=0.1, max_iter=2))
    sig = np.linalg.svd(out.L, compute_uv=False)
    assert out.rank == int(np.sum(sig > 1e-9 * sig[0])) == 3


def test_sparse_only_fixed_point():
    D = np.zeros((20, 20))
    D[3, 7] = 5.0
    out = decompose(D, RpcaConfig(eta=0.01))
    assert np.linalg.norm(out.L) <= 1e-5 * np.linalg.norm(D)
    assert np.abs(out.S[3, 7] - 5.0) <= 1e-4


def test_rank_one_goes_to_low_rank_part():
    rng = np.random.default_rng(4)
    D = np.outer(rng.standard_normal(50), rng.standard_normal(80))
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    assert np.linalg.norm(out.S) <= 1e-4 * np.linalg.norm(D)
    assert np.linalg.norm(D - out.L) <= 1e-4 * np.linalg.norm(D)
    assert out.rank == 1


def test_exact_recovery_of_synthetic_split():
    rng = np.random.default_rng(0)
    n = 200
    r = 10
    L0 = rng.standard_normal((n, r)) @ rng.standard_normal((r, n)) / np.sqrt(n)
    S0 = np.zeros((n, n))
    mask = rng.random((n, n)) < 0.05
    S0[mask] = rng.uniform(-1, 1, size=int(mask.sum()))
    D = L0 + S0
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    assert np.linalg.norm(out.L - L0) / np.linalg.norm(L0) <= 1e-5
    assert np.linalg.norm(out.S - S0) / np.linalg.norm(S0) <= 1e-5
    assert out.residual <= 1e-7
    assert out.iterations <= 60


def test_complex_decompose_and_phase_preservation():
    rng = np.random.default_rng(5)
    n = 60
    L0 = np.outer(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)) / n
    S0 = np.zeros((n, n), dtype=complex)
    idx = rng.random((n, n)) < 0.03
    S0[idx] = np.exp(1j * rng.uniform(0, 2 * np.pi, int(idx.sum())))
    out = decompose(L0 + S0, RpcaConfig(eta=conventional_eta(n, n)))
    assert np.linalg.norm(out.L - L0) / np.linalg.norm(L0) <= 1e-4
    assert np.linalg.norm(out.S - S0) / np.linalg.norm(S0) <= 1e-4


def test_real_input_gives_real_output():
    rng = np.random.default_rng(6)
    D = rng.standard_normal((30, 30))
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    assert not np.iscomplexobj(out.L)
    assert not np.iscomplexobj(out.S)


def test_integer_input_is_solved_as_float():
    D = np.random.default_rng(14).integers(-5, 5, (20, 60))
    config = RpcaConfig(eta=conventional_eta(*D.shape))
    a, b = decompose(D, config), decompose(D.astype(float), config)
    assert a.L.dtype == a.S.dtype == float
    assert np.array_equal(a.L, b.L) and np.array_equal(a.S, b.S)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_precision_input_is_solved_in_double(seed):
    # float32's resolution lies above the default tol 1e-7: solved in float32,
    # these took 60, 212 and 68 iterations against 17-18 in float64
    D = np.random.default_rng(seed).integers(-5, 5, (20, 60))
    config = RpcaConfig(eta=0.2)
    for narrow, wide in ((np.float32, np.float64), (np.complex64, np.complex128)):
        got, want = decompose(D.astype(narrow), config), decompose(D.astype(wide), config)
        assert got.L.dtype == got.S.dtype == wide
        assert (got.iterations, got.sparse_count) == (want.iterations, want.sparse_count)
        assert np.array_equal(got.L, want.L) and np.array_equal(got.S, want.S)


def test_windowed_split_has_the_solve_dtype():
    D = np.random.default_rng(14).integers(-5, 5, (20, 60))
    config = RpcaConfig(eta=conventional_eta(*D.shape))
    for M in (D, D.astype(np.float32)):
        out = decompose_windowed(M, 2, config)
        assert out.L.dtype == out.S.dtype == float
        assert np.array_equal(out.L, decompose_windowed(D.astype(float), 2, config).L)


def test_constraint_residual_on_success():
    rng = np.random.default_rng(7)
    D = rng.standard_normal((40, 50))
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    assert out.converged
    assert np.linalg.norm(D - out.L - out.S) / np.linalg.norm(D) <= 1e-7


def test_scale_covariance():
    rng = np.random.default_rng(8)
    D = np.outer(rng.standard_normal(30), rng.standard_normal(30))
    D[4, 9] += 3.0
    a = decompose(D, RpcaConfig(eta=0.2))
    b = decompose(7.0 * D, RpcaConfig(eta=0.2))
    assert np.allclose(b.L, 7.0 * a.L, atol=1e-5 * np.linalg.norm(D))
    assert np.allclose(b.S, 7.0 * a.S, atol=1e-5 * np.linalg.norm(D))


def test_zero_matrix_rejected():
    with pytest.raises(ConfigError):
        decompose(np.zeros((4, 4)), RpcaConfig(eta=0.5))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)],
                         ids=["nan", "inf", "-inf", "complex-inf"])
def test_non_finite_matrix_rejected_before_any_spectrum(entry, monkeypatch):
    D = low_rank_plus_sparse(10, 30, 2, True, 0.05, seed=26)
    D[3, 4] = entry
    spectra = []
    monkeypatch.setattr(rpca, "_gram", lambda A: spectra.append(A.shape))
    with pytest.raises(ConfigError):
        decompose(D, RpcaConfig(eta=conventional_eta(*D.shape)))
    assert spectra == []


def test_windowed_single_window_equals_plain():
    rng = np.random.default_rng(9)
    D = np.outer(rng.standard_normal(20), rng.standard_normal(25))
    D[2, 3] += 1.0
    a = decompose(D, RpcaConfig(eta=0.2))
    b = decompose_windowed(D, 1, RpcaConfig(eta=0.2))
    assert np.allclose(a.L, b.L, atol=1e-10)
    assert np.allclose(a.S, b.S, atol=1e-10)


def test_windowed_per_row_blocks_satisfy_constraint():
    rng = np.random.default_rng(10)
    D = rng.standard_normal((12, 30))
    out = decompose_windowed(D, 12, RpcaConfig(eta=conventional_eta(*D.shape)))
    residual = np.linalg.norm(D - out.L - out.S) / np.linalg.norm(D)
    assert residual <= 1e-6
    assert out.residual == pytest.approx(residual, rel=1e-9, abs=0.0)


def test_windowed_residual_is_the_whole_matrix_residual():
    # unequal row norms and a capped solve: the largest per-block relative
    # residual is not the whole matrix's
    rng = np.random.default_rng(13)
    D = rng.standard_normal((40, 90))
    D[20:] *= 0.1
    out = decompose_windowed(D, 2, RpcaConfig(eta=conventional_eta(*D.shape), max_iter=3))
    residual = np.linalg.norm(D - out.L - out.S) / np.linalg.norm(D)
    assert out.residual == pytest.approx(residual, rel=1e-9, abs=0.0)


def test_windowed_skips_an_all_zero_block():
    rng = np.random.default_rng(11)
    D = rng.standard_normal((12, 30))
    D[:6] = 0.0
    config = RpcaConfig(eta=conventional_eta(*D.shape))
    out = decompose_windowed(D, 2, config)
    assert not np.any(out.L[:6]) and not np.any(out.S[:6])
    assert out.converged and out.rank > 0
    assert np.linalg.norm(D - out.L - out.S) / np.linalg.norm(D) <= 1e-6
    zero = decompose_windowed(np.zeros_like(D), 2, config)
    assert zero.residual == 0.0 and zero.rank == 0


@pytest.mark.parametrize("setting", [
    {"eta": np.nan}, {"eta": np.inf}, {"eta": 0.0}, {"eta": -1.0}, {"eta": None},
    {"eta": "conventional"}, {"eta": "0.1"}, {"eta": True},
    {"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": None}, {"tol": True},
    {"max_iter": 0}, {"max_iter": None}, {"max_iter": 2.5}, {"max_iter": True},
], ids=["eta-nan", "eta-inf", "eta-0", "eta-negative", "eta-none", "eta-conventional",
        "eta-string", "eta-true", "tol-nan", "tol-inf", "tol-0", "tol-none", "tol-true",
        "max-iter-0", "max-iter-none", "max-iter-float", "max-iter-true"])
def test_settings_must_be_finite_and_positive(setting):
    with pytest.raises(ConfigError):
        RpcaConfig(**{"eta": 0.1, **setting})


@pytest.mark.parametrize("windows", [0, 2.0, True, 5])
def test_windowed_bad_window_count(windows):
    with pytest.raises(ConfigError):
        decompose_windowed(np.ones((4, 4)), windows, RpcaConfig(eta=0.5))


def _written(path, M):
    write_matrix(path, M)
    return np.frombuffer(path.read_bytes(), np.uint8)


_SCENE = make_scenario([stationary_target()], n=2)
_T = fast_times(_SCENE)
_BAND = (_SCENE.pulse, _SCENE.sampling.delta_t)
_K = passband_bins(_T.size, *_BAND).size
# every public function that takes a matrix: its argument's name, the shape of
# a valid input, and the call, given a directory, returning what it computed
MATRIX_TAKERS = {
    "decompose": ("D", (4, 6), lambda M, tmp: decompose(M, RpcaConfig(eta=0.5)).L),
    "windowed": ("D", (4, 6), lambda M, tmp: decompose_windowed(M, 1, RpcaConfig(eta=0.5)).L),
    "svt": ("M", (4, 6), lambda M, tmp: singular_value_threshold(M, 0.1)[0]),
    "singular-values": ("M", (4, 6), lambda M, tmp: singular_values(M)),
    "spectral-norm": ("M", (4, 6), lambda M, tmp: spectral_norm(M)),
    "spectrum": ("M", (4, 6), lambda M, tmp: spectrum(M).singular_values),
    "to-baseband": ("D", (3, _T.size), lambda M, tmp: to_baseband(M, *_BAND)),
    "to-solve-grid": ("D", (3, _T.size), lambda M, tmp: to_solve_grid(M, *_BAND)),
    "from-solve-grid": ("M", (3, _K), lambda M, tmp: from_solve_grid(M, *_BAND, _T.size, _T[0])),
    "from-baseband": ("DB", (3, _T.size), lambda M, tmp: from_baseband(M, *_BAND)),
    "migrate": ("data", (3, _T.size), lambda M, tmp: migrate(
        M, _SCENE, ImagingGrid([0.0, 0.0, 0.0], 5.0, 5.0, 2, 2)).values),
    "write-matrix": ("M", (4, 6), lambda M, tmp: _written(tmp / "M.sarm", M)),
}
# each made from a valid input
NOT_A_MATRIX = {
    "0d": lambda M: M[0, 0], "1d": lambda M: M[0], "3d": lambda M: M[None],
    "bool": lambda M: M.astype(bool), "text": lambda M: M.astype(str),
    "object": lambda M: M.astype(object),
    "ragged": lambda M: [*M[:-1].tolist(), M[-1, :-1].tolist()],
}


@pytest.mark.parametrize("bad", sorted(NOT_A_MATRIX))
@pytest.mark.parametrize("name", sorted(MATRIX_TAKERS))
def test_a_matrix_that_is_not_2d_is_config_error(name, bad, tmp_path):
    # a bool matrix was solved, transformed and written as numbers, a text or
    # object one failed with whatever numpy raised, and the 2-D checks outside
    # rpca named no argument
    arg, valid, call = MATRIX_TAKERS[name]
    M = NOT_A_MATRIX[bad](np.random.default_rng(0).standard_normal(valid))
    with pytest.raises(ConfigError, match=f"^{arg} must be a 2-D matrix of numbers"):
        call(M, tmp_path)


@pytest.mark.parametrize("name", sorted(MATRIX_TAKERS))
def test_a_nested_list_is_taken_as_its_array(name, tmp_path):
    # SVT, singular_values and spectral_norm raised AttributeError for a list
    _, valid, call = MATRIX_TAKERS[name]
    M = np.random.default_rng(1).standard_normal(valid)
    assert np.array_equal(call(M.tolist(), tmp_path), call(M, tmp_path))


@pytest.mark.parametrize("name", ["to-baseband", "to-solve-grid"])
def test_a_complex_gate_matrix_is_config_error(name, tmp_path):
    # numpy's rfft raised TypeError inside the baseband map
    _, valid, call = MATRIX_TAKERS[name]
    with pytest.raises(ConfigError, match="^D must be real"):
        call(np.ones(valid, complex), tmp_path)


def test_the_matrix_rule_returns_an_array_as_itself():
    real = np.random.default_rng(2).standard_normal((3, 4))
    for M in (real, np.asfortranarray(real), real + 1j, np.asfortranarray(real + 1j),
              np.arange(12, dtype=np.int64).reshape(3, 4)):
        assert matrix(M, "M") is M


_WIDE = low_rank_plus_sparse(30, 3001, 3, True, 0.05, seed=20)
CHUNKED_INPUTS = {
    "wide-complex": _WIDE,                     # 90030 entries: not a multiple of CHUNK
    "real": low_rank_plus_sparse(40, 2500, 3, False, 0.05, seed=21),
    "tall-complex": low_rank_plus_sparse(3001, 30, 3, True, 0.05, seed=22),
    "column-slice": _WIDE[:, 1:-1],
    "fortran": np.asfortranarray(_WIDE),
    # real parts +0 and -0: Y/mu and Y * (1/mu) can differ in the sign of a zero
    "imaginary": 1j * low_rank_plus_sparse(40, 2500, 3, False, 0.05, seed=24),
}


def relative_error(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", sorted(CHUNKED_INPUTS))
def test_chunked_pass_matches_whole_array_loop(name):
    D = CHUNKED_INPUTS[name]
    assert D.size > 10 * rpca.CHUNK
    config = RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-7)
    ref = decompose_t_state(D, config)
    out = decompose(D, config)
    # the same elementwise operations on every entry: only the residual's
    # summation order differs
    assert np.array_equal(out.L, ref.L)
    assert np.array_equal(out.S, ref.S)
    assert out.L.dtype == ref.L.dtype and out.S.dtype == ref.S.dtype
    assert (out.iterations, out.rank, out.sparse_count, out.converged) == \
        (ref.iterations, ref.rank, ref.sparse_count, ref.converged)
    assert out.residual == pytest.approx(ref.residual, rel=1e-12, abs=0.0)
    sig = np.linalg.svd(out.L, compute_uv=False)
    assert out.rank == np.count_nonzero(sig > 1e-9 * sig[0])
    # the textbook loop carries Y: T-state rounding differs from it, not the split
    text = decompose_reference(D, config)
    assert (out.iterations, out.rank, out.sparse_count, out.converged) == \
        (text.iterations, text.rank, text.sparse_count, text.converged)
    assert relative_error(out.L, text.L) <= 1e-12
    assert relative_error(out.S, text.S) <= 1e-12


@pytest.mark.parametrize("name", ["imaginary", "real", "tall-complex", "wide-complex"])
def test_t_state_does_not_drift_at_the_mu_cap(name):
    # 150 iterations, about 100 of them at the cap, where mu/mu' = 1 no longer
    # damps the rounding of the implicit dual Y/mu = T - D + S
    D = CHUNKED_INPUTS[name]
    config = RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-300, max_iter=150)
    out = decompose(D, config)
    text = decompose_reference(D, config)
    assert out.trace[-1]["mu"] == MU_CAP_FACTOR * out.trace[0]["mu"]
    assert (out.rank, out.sparse_count) == (text.rank, text.sparse_count)
    assert relative_error(out.L, text.L) <= 1e-12
    assert relative_error(out.S, text.S) <= 1e-12


@pytest.mark.parametrize("shape, complex_", [((20, 300), True), ((300, 20), True),
                                             ((20, 300), False)],
                         ids=["wide", "tall", "real"])
def test_first_svt_thresholds_the_scaled_input(shape, complex_):
    # Y_0 = D / c and S_0 = 0, so T_1 = Y_0/mu_0 + D = s D, s = 1 + 1/(c mu_0)
    D = low_rank_plus_sparse(*shape, 2, complex_, 0.05, seed=28)
    eta = conventional_eta(*D.shape)
    norm2 = spectral_norm(D)
    mu = rpca.MU0_FACTOR / norm2
    s = 1.0 + 1.0 / (max(norm2, np.max(np.abs(D)) / eta) * mu)
    ref = singular_value_threshold(s * D, 1.0 / mu)[0]
    out = decompose(D, RpcaConfig(eta=eta, max_iter=1))
    assert out.L.dtype == ref.dtype
    assert np.linalg.norm(out.L - ref) <= 1e-10 * np.linalg.norm(ref)


def test_one_gram_matrix_and_one_pass_per_iteration(monkeypatch):
    D = low_rank_plus_sparse(20, 3000, 2, True, 0.05, seed=24)
    grams, spectra, passes = [], [], []
    gram, gram_spectrum, chunks = rpca._gram, rpca._gram_spectrum, rpca._chunks
    monkeypatch.setattr(rpca, "_gram", lambda A: grams.append(A.shape) or gram(A))
    monkeypatch.setattr(rpca, "_gram_spectrum",
                        lambda G: spectra.append(G.shape) or gram_spectrum(G))
    monkeypatch.setattr(rpca, "_chunks", lambda *a: passes.append(len(a)) or chunks(*a))
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-4))
    assert out.converged and out.iterations > 5
    # D's Gram matrix gives ||D||_2 and the first SVT: every SVT is a Gram-route
    # step after that, so one Gram matrix and one eigh per iteration
    assert len(grams) == len(spectra) == out.iterations
    # ||D||_inf, one elementwise pass per iteration and the dense S
    assert passes == [1] + [3] * out.iterations + [1]


def traced_decompose(D, eta):
    """decompose(D) to tol 1e-4 and the peak of what it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = decompose(D, RpcaConfig(eta=eta, tol=1e-4))
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decompose_peak_memory():
    # while it iterates, decompose holds the SVT input T, SVT's output L and S
    # as its kept entries (an offset of 2 bytes and a value each); the dense S
    # is built in T's buffer.  A dense S while it iterates, a stored Y or V, a
    # full-size real copy of T for the Gram matrix, a full-size |D| or
    # full-size shrinkage temporaries push this past 2.5
    D = low_rank_plus_sparse(64, 20000, 4, True, 0.02, seed=23)
    out, peak = traced_decompose(D, conventional_eta(*D.shape))
    assert out.converged
    assert peak <= 2.5 * D.nbytes


def test_windowed_peak_memory():
    # two windows hold the zero-filled L and S (2x) and one block's solve.  A
    # whole-matrix residual D - L - S, or a block's split kept while the next
    # block is solved, each added one full matrix: 4.14x before.  Measured 3.137x
    D = low_rank_plus_sparse(64, 20000, 4, True, 0.02, seed=23)
    config = RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-4)
    tracemalloc.start()
    try:
        out = decompose_windowed(D, 2, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.converged
    assert peak <= 3.14 * D.nbytes


def test_one_window_returns_decomposes_own_split():
    # no zero-filled L and S to copy the split into, and no residual recomputed
    # with full-size temporaries: those more than doubled decompose's peak
    D = low_rank_plus_sparse(64, 20000, 4, True, 0.02, seed=23)
    config = RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-4)
    out, peak = traced_decompose(D, config.eta)
    tracemalloc.start()
    try:
        one = decompose_windowed(D, 1, config)
        one_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one_peak <= 1.05 * peak
    # two solves of the same matrix, equal up to threaded BLAS's summation order
    assert relative_error(one.L, out.L) <= 1e-12 and relative_error(one.S, out.S) <= 1e-12
    assert one.residual == pytest.approx(out.residual, rel=1e-9)
    assert (one.iterations, one.rank, one.sparse_count, one.converged) == \
        (out.iterations, out.rank, out.sparse_count, out.converged)
    assert [e["window"] for e in one.trace] == [0] * out.iterations
    assert all(set(e) == {*out.trace[0], "window"} for e in one.trace)


def test_decompose_peak_memory_with_a_dense_s():
    # a tiny eta keeps every entry, and the kept entries cost 18/16 of a dense S
    D = low_rank_plus_sparse(64, 20000, 4, True, 0.02, seed=23)
    out, peak = traced_decompose(D, 1e-6 * conventional_eta(*D.shape))
    assert out.converged and out.sparse_count == D.size
    assert peak <= 3.6 * D.nbytes


def test_trace_has_one_entry_per_iteration():
    D = low_rank_plus_sparse(20, 300, 2, True, 0.05, seed=24)
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-7))
    assert out.converged and len(out.trace) == out.iterations
    assert out.trace[-1]["residual"] == out.residual
    assert out.sparse_count == out.trace[-1]["nnz"] == np.count_nonzero(out.S)
    assert out.trace[-1]["rank"] == out.rank
    for entry in out.trace:
        assert set(entry) == {"residual", "mu", "nnz", "rank", "svt_s", "pass_s"}
        assert entry["svt_s"] >= 0 and entry["pass_s"] >= 0


def test_residual_at_the_iteration_cap_is_that_of_the_returned_split():
    # the last iteration takes no next SVT input, so L is SVT's output
    D = low_rank_plus_sparse(20, 300, 2, True, 0.05, seed=27)
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-300, max_iter=5))
    assert not out.converged and out.iterations == 5
    residual = np.linalg.norm(D - out.L - out.S) / np.linalg.norm(D)
    assert out.residual == pytest.approx(residual, rel=1e-12, abs=0.0)


def test_trace_mu_grows_by_rho_until_the_cap():
    D = low_rank_plus_sparse(20, 300, 2, True, 0.05, seed=24)
    out = decompose(D, RpcaConfig(eta=conventional_eta(*D.shape), tol=1e-300, max_iter=60))
    assert not out.converged and len(out.trace) == 60
    mu = [entry["mu"] for entry in out.trace]
    cap = MU_CAP_FACTOR * mu[0]
    assert mu[1:] == [min(RHO * m, cap) for m in mu[:-1]]
    assert mu[-1] == cap


def test_windowed_trace_concatenates_blocks():
    D = low_rank_plus_sparse(12, 400, 2, False, 0.05, seed=25)
    D[4:8] = 0.0  # the skipped middle block adds no entries
    config = RpcaConfig(eta=conventional_eta(*D.shape))
    out = decompose_windowed(D, 3, config)
    parts = [decompose(D[a:b], config) for a, b in ((0, 4), (8, 12))]
    assert [e["window"] for e in out.trace] == \
        [0] * parts[0].iterations + [2] * parts[1].iterations
    strip = [{k: v for k, v in e.items() if k in ("residual", "mu", "nnz")}
             for e in out.trace]
    assert strip == [{k: e[k] for k in ("residual", "mu", "nnz")}
                     for p in parts for e in p.trace]
    last_nnz = {e["window"]: e["nnz"] for e in out.trace}
    assert out.sparse_count == sum(last_nnz.values()) == np.count_nonzero(out.S)
