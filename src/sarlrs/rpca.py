"""Low-rank plus sparse decomposition by the inexact augmented Lagrangian method.

Solves  min ||L||_* + eta ||S||_1  s.t.  L + S = D  for real or complex D.
The weight eta is a number chosen by the caller: the eta module derives it
(`conventional_eta`, the band of `eta_bounds_baseband`), this one only uses it.
Sparse shrinkage preserves the complex argument of each entry; singular value
thresholding acts on the (real, nonnegative) spectrum.

SAR matrices are very wide (a few hundred pulses by tens of thousands of
fast-time samples), so singular value thresholding (SVT) and the spectral
norm work on the Gram matrix G = A A^H of the short side A (M, or M^T when M
is tall): one eigh of an n x n matrix, n = min(n1, n2), instead of a thin SVD
of M.  The Gram matrix squares the condition number, so its eigenvalues
carry an absolute error of about eps * sigma_max^2 and singular values below
~1e-8 sigma_max are noise.  So SVT picks its route from trace(G) = ||A||_F^2
before it takes any spectrum: for thresholds below GRAM_MIN_TAU * ||A||_F it
takes the exact R-factor route instead of eigh(G).  R from the QR of the tall
view A^T has R^H R = A A^H, and the n x n SVD of R gives A's singular values
and left singular vectors as accurately as an SVD of A.  R is updated one
BLOCK-column block at a time, so LAPACK never copies more than n + BLOCK
rows of A^T.  `singular_values` reads the same R.  SVT returns L's singular
values, sigma_k - tau for the kept k, with L, and the rank that `decompose`
reports counts them, so no spectrum of L is taken after the solve.

SVT reads its input and writes L one BLOCK-column block of A at a time.
`_gram` sums G over the blocks with no conjugated or real copy of A: a
complex block A_c = X_c + iY_c is copied into the real B_c = [X_c; Y_c],
whose one syrk B_c B_c^T takes half the multiplies of the complex product,
and the sum H gives G = (H11 + H22) + i (H21 - H12), exactly Hermitian.  On
the seed-0 237 x 32000 gotcha matrix it agrees with A @ A.conj().T to
8.6e-16 of its largest entry.  The product takes C = U_k^H A_c and writes
(U_k d) C into the same block of L, so L may overwrite the input.  BLOCK
was set by timing SVT on that matrix at thresholds keeping 10, 50 and 200
values (2 vCPU, medians of six): 4096 columns took 0.23, 0.29 and 0.49 s,
as fast as one product over the whole matrix (0.23, 0.29 and 0.52 s), with
19 MB of scratch against 129-228 MB; 1024 and 2048 columns were 3-14 %
slower, and 8192 was no faster with 35 MB.  Every CLI solve (135 or 956
columns) is one block.

The loop carries the SVT input T = Y/mu + D - S, not the dual Y.  With
W = Y/mu + D, the shrink input is V = W - L = T + S_old - L, and the new
dual gives Y'/mu = Y/mu + R = V - S, R = D - L - S.  So the next SVT input
is T' = (mu/mu') (V - S) + D - S, and everything around each SVT step is one
elementwise pass over CHUNK-entry slices of the flat, C-contiguous D, T and
L.  While it iterates, `decompose` holds S as its kept entries: per slice,
their offsets in the narrowest unsigned type that holds CHUNK - 1 (uint16)
and their values, so even a fully dense S costs at most 18/16 of a dense
complex array.  Per slice the pass forms V (adding S_old at its offsets),
S's kept entries and their values (`_kept`, the rule of `soft_threshold`),
R = D - L - S with its squared norm summed, and writes T' over T, in 8
operations over the whole slice.  SVT writes L into its own buffer, so D, T
and L are the only full-size arrays; V, R and |V| exist only a slice at a
time, and the dense S is built in T's buffer after the last iteration.
The dual is implicit, Y/mu = T - D + S: its rounding is damped by mu/mu'
each iteration and grows at most linearly once mu reaches its cap, so over
150 iterations, about 100 at the cap, L and S stayed within 1.3e-15
relative of a whole-array loop that carries Y.

Y_0 = D / c and S_0 = 0, so the first SVT input is T_1 = s D, s = 1 +
1/(c mu_0).  One Gram spectrum of D gives ||D||_2 (its top value, the value
of `spectral_norm`) and the first SVT, which thresholds s D with D's
singular values times s and its U through SVT's product step
(`_threshold_product`); no Gram matrix or eigh of T_1 is taken.  CHUNK was
set by timing the pass on a 237 x 31674 complex matrix (2 vCPU, medians of
five): 8192 entries was fastest, 4096 3 % slower, 16384 to 65536 12-27 %
slower, and whole arrays twice as slow.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, SvdFailure

MU0_FACTOR = 1.2             # initial penalty mu_0 = MU0_FACTOR / ||D||_2
RHO = 1.4                    # penalty growth factor per iteration
MU_CAP_FACTOR = 1e7          # mu_k capped at MU_CAP_FACTOR * mu_0
# SVT thresholds below GRAM_MIN_TAU * ||A||_F take the exact R-factor route.
# Measured against the SVD on every SVT input of the scaled scene's solve and
# on a matrix with sigma from 1 to 1e-12, the Gram route's relative error
# grows about as 1 / tau: at most 9e-12 for tau >= 1e-5 sigma_max, 10x inside
# the 1e-10 the tests ask for, but 5e-11 at 1e-6.  ||A||_F >= sigma_max, so
# the Gram route only runs where that bound was measured.
GRAM_MIN_TAU = 1e-5
CHUNK = 8192                 # entries per slice of decompose's elementwise pass
BLOCK = 4096                 # columns per block of SVT's Gram sum and product


def _is_count(x) -> bool:
    """x is a positive integer: any Integral but a bool, which counts nothing."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= 1


def _is_real(x) -> bool:
    """x is a real number: any Real but a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class RpcaConfig:
    """Solver settings.  eta is a number: callers derive it with the eta module."""

    eta: float                 # weight of the sparse term
    tol: float = 1e-7          # relative Frobenius residual
    max_iter: int = 1000

    def __post_init__(self):
        # eta and tol must be finite, positive real numbers: nan fails the comparison,
        # and a bool is no weight or tolerance
        if not all(_is_real(x) and 0 < x < math.inf for x in (self.eta, self.tol)):
            raise ConfigError("eta and tol must be finite, positive numbers")
        if not _is_count(self.max_iter):
            raise ConfigError("max_iter must be a positive integer")


@dataclass
class Decomposition:
    L: np.ndarray
    S: np.ndarray
    iterations: int
    residual: float          # final ||D - L - S||_F / ||D||_F
    rank: int                # kept values of the last SVT above 1e-9 times the largest
    sparse_count: int        # exact nonzeros of S: the last iteration's trace nnz
    converged: bool
    trace: list = field(default_factory=list)  # one dict per iteration


def _kept(a: np.ndarray, eta: float, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the entries of the flat `a` with |a| > eta, and a (1 - eta / |a|) there.

    |a| is written into the real `scratch`.  For eta > 0 the test |a| > eta
    equals 1 - fl(eta / |a|) > 0: an |a| one ulp above eta gives a quotient
    of at most 1 - 2^-53.  Only kept entries are divided, so zeros, ties and
    subnormals below eta raise no divide or overflow.
    """
    np.abs(a, out=scratch)
    k = np.flatnonzero(scratch > eta)
    return k, a[k] * (1.0 - eta / scratch[k])


def soft_threshold(a, eta: float, out=None):
    """Magnitude shrinkage that keeps the complex argument.

    For real input this is the usual sign(a) * max(|a| - eta, 0).  The
    result is a * 0 with the entries where |a| > eta overwritten by
    a (1 - eta / |a|) (`_kept`), so it has the bytes of a * max(1 - eta / |a|,
    0), NaN and signed zeros included, with no placeholder phase.  An entry
    with an infinite part is returned as it is: its scale is exactly 1, and
    the complex product with it would put NaN in the other part (inf * 0j).
    It is written to `out` when given, as for a numpy ufunc.  eta must be a
    real number >= 0 and not a bool, else `ConfigError`: eta = 0 returns a's
    values, and eta = inf zeroes every finite entry.
    """
    if not (_is_real(eta) and eta >= 0):  # nan fails the comparison
        raise ConfigError(f"soft_threshold's eta must be a real number >= 0, got {eta!r}")
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    inf = np.isinf(a)  # kept as they are, so `_kept` sees 0 there
    scratch = np.empty(a.size, a.real.dtype)
    k, v = _kept(np.where(inf, 0, a).reshape(-1), eta, scratch)
    # a * 0 only where neither kept nor infinite, so no infinity meets the 0
    shrunk = np.asarray(np.multiply(a, 0.0, out=out,
                                    where=~(inf | (scratch > eta).reshape(a.shape))))
    shrunk.flat[k] = v  # C-order offsets, whatever the memory order of shrunk
    shrunk[inf] = a[inf]
    return shrunk if shrunk.ndim else shrunk[()]


def _short_side(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """M, or its view M^T (same singular values) when M is tall, and whether it was flipped."""
    tall = M.shape[0] > M.shape[1]
    return (M.T if tall else M), tall


def _gram(A: np.ndarray) -> np.ndarray:
    """G = A A^H, exactly Hermitian, summed over BLOCK-column blocks with no copy of A.

    A real A gives H = A A^T, one syrk per block.  A complex A = X + iY is
    copied a block at a time into the real B_c = [X_c; Y_c] (2n x BLOCK, the
    bytes of the block), and H = sum_c B_c B_c^T, half the multiplies of a
    complex GEMM, gives G = (H11 + H22) + i (H21 - H12).  Each syrk fills
    its term symmetric, so H12 = H21^T and G's diagonal is real.  B_c keeps
    A's memory order, so the transposed view of a tall C-ordered matrix is
    copied column by column.
    """
    n, m = A.shape
    cplx = np.iscomplexobj(A)
    if cplx:
        B = np.empty((2 * n, min(m, BLOCK)), order="F" if A.flags.f_contiguous else "C")
    H = np.zeros((2 * n if cplx else n,) * 2, A.real.dtype)
    for c in range(0, m, BLOCK):
        Ac = A[:, c:c + BLOCK]
        if cplx:
            Bc = B[:, :Ac.shape[1]]
            Bc[:n] = Ac.real
            Bc[n:] = Ac.imag
        else:
            Bc = Ac
        H += Bc @ Bc.T
    if not cplx:
        return H
    G = np.empty((n, n), A.dtype)
    np.add(H[:n, :n], H[n:, n:], out=G.real)
    np.subtract(H[n:, :n], H[:n, n:], out=G.imag)
    return G


def _gram_spectrum(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (ascending) and left singular vectors of A via eigh(G), G = A A^H."""
    try:
        w, U = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(str(exc)) from exc
    return np.sqrt(np.maximum(w, 0.0)), U


def _r_factor_svd(A: np.ndarray, compute_uv: bool = True):
    """SVD of the n x n R = conj(qr(A^T).R), with R^H R = A A^H, for a short-side A.

    With R = U_R s V^H, s holds A's singular values (descending) and the
    columns of V its left singular vectors, both as accurate as a full SVD.
    R is updated one BLOCK-column block A_c of A at a time, R = qr([R; A_c^T]),
    so LAPACK copies at most n + BLOCK rows of A^T, not all of them, and no
    conjugated copy of A is made.
    """
    try:
        R = np.linalg.qr(A[:, :BLOCK].T, mode="r")
        for c in range(BLOCK, A.shape[1], BLOCK):
            R = np.linalg.qr(np.concatenate((R, A[:, c:c + BLOCK].T)), mode="r")
        return np.linalg.svd(R.conj(), compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(str(exc)) from exc


def singular_value_threshold(M: np.ndarray, tau: float, out=None):
    """L = U diag(max(sigma - tau, 0)) V^H and L's singular values, from M's short side.

    With A the short-side orientation of M, the kept part is
    U_k diag(1 - tau / sigma_k) U_k^H A.  U and sigma come from eigh of the
    small Gram matrix G = A A^H, or, for thresholds below GRAM_MIN_TAU *
    ||A||_F (read off trace(G)), from the exact R factor (see GRAM_MIN_TAU).
    Either way one spectrum is taken.  The product is taken one BLOCK-column
    block of A at a time, C = U_k^H A_c and then (U_k d) C written into the
    same block of L, so `out` may be M itself.  L is written to `out` when
    given, as for a numpy ufunc, and to a new C-ordered array otherwise.
    Returns (L, s), s = sigma_k - tau for the kept k, descending.
    """
    A, _ = _short_side(M)
    G = _gram(A)
    if tau < GRAM_MIN_TAU * np.sqrt(np.trace(G).real):
        _, sig, Vh = _r_factor_svd(A)
        U = Vh.conj().T
    else:
        sig, U = _gram_spectrum(G)
    return _threshold_product(M, sig, U, tau, out)


def _threshold_product(M: np.ndarray, sig: np.ndarray, U: np.ndarray, tau: float, out=None):
    """SVT's product step: U_k diag(1 - tau / sigma_k) U_k^H A for M's short side A.

    sig and U are A's singular values and left singular vectors, in any
    order; the kept k are those with sigma_k > tau.  Written to `out` as
    `singular_value_threshold` describes; returns (L, s) as it does.
    """
    A, tall = _short_side(M)
    keep = sig > tau
    Uk = U[:, keep]
    Ukd = Uk * (1.0 - tau / sig[keep])
    Ukh = Uk.conj().T
    if out is None:
        out = np.empty(M.shape, np.result_type(Ukd, A))
    L = out.T if tall else out
    for c in range(0, A.shape[1], BLOCK):
        np.matmul(Ukd, Ukh @ A[:, c:c + BLOCK], out=L[:, c:c + BLOCK])
    return out, np.sort(sig[keep] - tau)[::-1]


def singular_values(M: np.ndarray) -> np.ndarray:
    """All singular values of M, descending, as accurate as a full SVD."""
    return _r_factor_svd(_short_side(M)[0], compute_uv=False)


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value, from the top eigenvalue of the short-side Gram matrix."""
    A, _ = _short_side(M)
    return float(_gram_spectrum(_gram(A))[0][-1])


def _chunks(*arrays):
    """Aligned flat slices of equally shaped C-contiguous arrays, CHUNK entries at a time.

    The slices are views, so writes reach the arrays.  A reshape of an array
    that is not C-contiguous would be a silent copy, hence the check.
    """
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("chunked arrays must be C-contiguous")
    flat = [a.reshape(-1) for a in arrays]
    for start in range(0, flat[0].size, CHUNK):
        yield [f[start:start + CHUNK] for f in flat]


def _solve_dtype(D: np.ndarray) -> np.dtype:
    """float64 or complex128: narrower floats and integers are solved in double precision."""
    return np.promote_types(D.dtype, np.float64)


def decompose(D: np.ndarray, config: RpcaConfig) -> Decomposition:
    """Split D into low-rank L plus sparse S at config's eta, to config's tol.

    L and S are float64 for real D and complex128 for complex D, whatever D's
    own precision: integers, float32 and complex64 are solved in double
    precision, since the default tol 1e-7 lies below float32's resolution.
    """
    D = np.asarray(D)
    D = np.ascontiguousarray(D, _solve_dtype(D))
    norm_f = np.linalg.norm(D)  # nan or inf when any entry is
    if not 0 < norm_f < math.inf:
        raise ConfigError("input matrix is zero or has non-finite entries")
    eta = float(config.eta)  # a numpy float32 eta would round eta / mu to 32 bits
    T = np.empty_like(D)               # the SVT input, then the dense S
    L = np.empty_like(D)               # SVT's output
    v_buf = np.empty(CHUNK, D.dtype)   # V = W - L, then V - S
    r = np.empty(CHUNK, D.dtype)       # R = D - L - S
    a = np.empty(CHUNK, D.real.dtype)  # |D|, then |V|
    # D's spectrum gives ||D||_2, the value of spectral_norm, and the first SVT
    spectrum = _gram_spectrum(_gram(_short_side(D)[0]))
    norm2 = float(spectrum[0][-1])
    d_max = max(np.abs(d, out=a[:d.size]).max() for (d,) in _chunks(D))
    mu = MU0_FACTOR / norm2
    mu_cap = MU_CAP_FACTOR * mu

    # dual ascent seed Y_0 = D / c, c = max(||D||_2, ||D||_inf / eta), and S_0 = 0,
    # so the first SVT input is T_1 = Y_0/mu_0 + D = s D, whose spectrum is D's times s
    scale = 1.0 + 1.0 / (max(norm2, d_max / eta) * mu)
    np.multiply(D, scale, out=T)
    spectrum = scale * spectrum[0], spectrum[1]
    # S as its kept entries: per chunk, their offsets in it and their values
    offset = np.min_scalar_type(CHUNK - 1)
    kept = [(np.empty(0, offset), np.empty(0, D.dtype))] * -(-D.size // CHUNK)
    converged = False
    residual = np.inf
    trace = []
    it = 0
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        if spectrum is None:
            L, sv = singular_value_threshold(T, 1.0 / mu, out=L)
        else:  # 1/mu_0 = ||D||_2 / MU0_FACTOR: above SVT's exact-route guard for any n < 2e9
            L, sv = _threshold_product(T, *spectrum, 1.0 / mu, out=L)
            spectrum = None  # free U before the next SVT
        rank = int(np.count_nonzero(sv > 1e-9 * sv.max(initial=0.0)))
        svt_end = time.perf_counter()
        mu_next = min(RHO * mu, mu_cap)
        ratio = mu / mu_next
        sq_norm, nnz = 0.0, 0
        for i, ((d, t, l), (k, v)) in enumerate(zip(_chunks(D, T, L), kept)):
            n = d.size
            vc, rc, ac = v_buf[:n], r[:n], a[:n]
            # V = W - L = T + S_old - L, W = Y/mu + D
            np.subtract(t, l, out=vc)
            vc[k.astype(np.intp)] += v
            k, v = _kept(vc, eta / mu, ac)                 # S = soft_threshold(V, eta/mu)
            kept[i] = k.astype(offset), v
            nnz += np.count_nonzero(v)
            np.subtract(d, l, out=rc)                      # R = D - L - S
            rc[k] -= v
            sq_norm += np.vdot(rc, rc).real
            # T' = Y'/mu' + D - S with Y'/mu = Y/mu + R = V - S
            vc[k] -= v
            np.multiply(vc, ratio, out=t)
            t += d
            t[k] -= v
        residual = np.sqrt(sq_norm) / norm_f
        trace.append({"residual": float(residual), "mu": mu, "nnz": int(nnz), "rank": rank,
                      "svt_s": svt_end - start, "pass_s": time.perf_counter() - svt_end})
        # require two sweeps: a degenerate first iterate can zero the residual
        # before the thresholded split has settled
        if residual <= config.tol and it >= 2:
            converged = True
            break
        mu = mu_next

    S = T  # the last T' is not needed: S is built in its buffer
    for (s,), (k, v) in zip(_chunks(S), kept):
        s.fill(0)
        s[k] = v
    return Decomposition(
        L=L, S=S, iterations=it, residual=float(residual), rank=rank,
        sparse_count=int(nnz), converged=converged, trace=trace,
    )


def decompose_windowed(D: np.ndarray, windows: int, config: RpcaConfig) -> Decomposition:
    """Split rows into consecutive slow-time blocks and decompose each.

    Every block is solved at the same config, so at the same eta, and L and
    S have `decompose`'s dtype.  One window of a nonzero D returns
    `decompose`'s own split, its trace entries tagged with window 0.  An
    all-zero block is not solved: its L and S are zero.
    """
    D = np.asarray(D)
    if not _is_count(windows) or windows > D.shape[0]:
        raise ConfigError("windows must be an integer in [1, row count]")
    if windows == 1 and np.any(D):
        one = decompose(D, config)
        return replace(one, trace=[{**entry, "window": 0} for entry in one.trace])
    edges = np.linspace(0, D.shape[0], windows + 1).astype(int)
    out = Decomposition(L=np.zeros_like(D, _solve_dtype(D)), S=np.zeros_like(D, _solve_dtype(D)),
                        iterations=0, residual=0.0, rank=0, sparse_count=0, converged=True)
    # ||D - L - S||_F^2 and ||D||_F^2 as sums over the blocks, each block's
    # misfit its relative residual times its norm; a skipped block adds 0 to both
    sq_misfit = sq_norm = 0.0
    for window, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if not np.any(D[a:b]):
            continue  # all-zero block separates trivially
        part = decompose(D[a:b], config)
        out.trace += [{**entry, "window": window} for entry in part.trace]
        out.L[a:b] = part.L
        out.S[a:b] = part.S
        out.iterations = max(out.iterations, part.iterations)
        out.rank += part.rank
        out.sparse_count += part.sparse_count
        out.converged = out.converged and part.converged
        norm_w = float(np.linalg.norm(D[a:b]))
        sq_misfit += (part.residual * norm_w) ** 2
        sq_norm += norm_w * norm_w
        del part  # its L and S are copied: free them before the next block's solve
    if sq_norm:  # 0 only when every block was skipped
        out.residual = math.sqrt(sq_misfit / sq_norm)
    return out
