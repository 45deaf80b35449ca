"""Low-rank plus sparse decomposition by the inexact augmented Lagrangian method.

Solves  min ||L||_* + eta ||S||_1  s.t.  L + S = D  for real or complex D.
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
and left singular vectors as accurately as an SVD of A.  `singular_values`,
and so the rank that `decompose` reports, read the same R.

`_gram` forms G with no conjugated copy of A.  A complex A = X + iY is
copied into the real B = [X; Y], whose one syrk H = B B^T takes half the
multiplies of the complex product A @ A.conj().T, and
G = (H11 + H22) + i (H21 - H12) comes out exactly Hermitian.  On the seed-0
237 x 31674 gotcha matrix it agrees with A @ A.conj().T to 1.4e-15 of its
largest entry, and the tol-1e-2 solve of that matrix keeps its 11
iterations, rank 47, 278296 nonzeros and S support, with L and S within
about 1e-14 of their peaks of the values from A @ A.conj().T.

After each SVT step, everything else an iteration does is elementwise, and
`decompose` does it in one pass over CHUNK-entry slices of the flat,
C-contiguous work arrays: W = Y/mu + D, S = soft_threshold(W - L, eta/mu),
R = D - L - S with its squared norm summed, Y += mu R, and the next SVT
input (Y/mu' + D) - S.  D, Y, S, the SVT input and L are the full-size
arrays; W and R exist only a slice at a time, and the last L is freed
before SVT allocates the next.  A complex Y is multiplied by 1/mu
(`_divide`): numpy divides complex by real as (a + 0 b) * (1/mu), so the
values are those of the division and only the sign of a zero can differ.
Each entry otherwise goes through the same numpy operations as in a loop
over whole arrays that divides, so L and S are equal to that loop's under
np.array_equal (the same bytes for real D); only the residual's summation
order differs.  CHUNK was set by timing the pass on a 237 x 31674 complex
matrix (2 vCPU, medians of five): 8192 entries was fastest, 4096 3 %
slower, 16384 to 65536 12-27 % slower, and whole arrays twice as slow.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SvdFailure
from .eta import conventional_eta

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


@dataclass(frozen=True)
class RpcaConfig:
    eta: float | str = "conventional"  # weight of the sparse term, or "conventional"
    tol: float = 1e-7                  # relative Frobenius residual
    max_iter: int = 1000

    def __post_init__(self):
        # eta and tol must be finite and positive: the comparisons fail for nan
        if not 0 < self.tol < math.inf or self.max_iter < 1:
            raise ConfigError("bad convergence settings")
        if isinstance(self.eta, str):
            if self.eta != "conventional":
                raise ConfigError(f"unknown eta mode '{self.eta}'")
        elif not 0 < self.eta < math.inf:
            raise ConfigError("eta must be finite and positive")

    def resolve_eta(self, shape) -> float:
        if isinstance(self.eta, str):
            return conventional_eta(*shape)
        return float(self.eta)


@dataclass
class Decomposition:
    L: np.ndarray
    S: np.ndarray
    iterations: int
    residual: float          # final ||D - L - S||_F / ||D||_F
    rank: int
    sparse_count: int        # exact nonzeros of S: the last iteration's trace nnz
    converged: bool
    window_edges: list = field(default_factory=list)
    trace: list = field(default_factory=list)  # one dict per iteration


def soft_threshold(a, eta: float, out=None):
    """Magnitude shrinkage that keeps the complex argument.

    For real input this is the usual sign(a) * max(|a| - eta, 0).  It is
    computed as a * max(1 - eta / |a|, 0) in one real scratch array, with no
    placeholder phase; exact zeros and ties map to 0.  The product is written
    to `out` when given, as for a numpy ufunc.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    scale = np.abs(np.atleast_1d(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(eta, scale, out=scale)  # inf at zeros, nan at 0 / 0
    np.subtract(1.0, scale, out=scale)
    np.fmax(scale, 0.0, out=scale)        # fmax maps the nan to 0
    shrunk = np.multiply(a, scale.reshape(a.shape), out=out)
    return shrunk if shrunk.ndim else shrunk[()]


def _short_side(M: np.ndarray) -> tuple[np.ndarray, bool]:
    """M, or its view M^T (same singular values) when M is tall, and whether it was flipped."""
    tall = M.shape[0] > M.shape[1]
    return (M.T if tall else M), tall


def _gram(A: np.ndarray) -> np.ndarray:
    """G = A A^H, exactly Hermitian, with no conjugated copy of A.

    A real A gives A A^T, one syrk.  A complex A = X + iY is copied into the
    real B = [X; Y] (2n x m, the bytes of A), and the one syrk H = B B^T,
    half the multiplies of a complex GEMM, gives
    G = (H11 + H22) + i (H21 - H12).  syrk fills H symmetric, so H12 = H21^T
    and G's diagonal is real.  B keeps A's memory order, so the transposed
    view of a tall C-ordered matrix is copied column by column.
    """
    if not np.iscomplexobj(A):
        return A @ A.T
    n = A.shape[0]
    B = np.empty((2 * n, A.shape[1]), order="F" if A.flags.f_contiguous else "C")
    B[:n] = A.real
    B[n:] = A.imag
    H = B @ B.T
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
    A^T is a view of A, so no conjugated copy of A is made.
    """
    try:
        R = np.linalg.qr(A.T, mode="r").conj()
        return np.linalg.svd(R, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(str(exc)) from exc


def singular_value_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """U diag(max(sigma - tau, 0)) V^H, from the left singular vectors of M's short side.

    With A the short-side orientation of M, the kept part is
    U_k diag(1 - tau / sigma_k) U_k^H A.  U and sigma come from eigh of the
    small Gram matrix G = A A^H, or, for thresholds below GRAM_MIN_TAU *
    ||A||_F (read off trace(G)), from the exact R factor (see GRAM_MIN_TAU).
    Either way one spectrum is taken.
    """
    A, tall = _short_side(M)
    G = _gram(A)
    if tau < GRAM_MIN_TAU * np.sqrt(np.trace(G).real):
        _, sig, Vh = _r_factor_svd(A)
        U = Vh.conj().T
    else:
        sig, U = _gram_spectrum(G)
    keep = sig > tau
    Uk = U[:, keep]
    out = (Uk * (1.0 - tau / sig[keep])) @ (Uk.conj().T @ A)
    return out.T if tall else out


def singular_values(M: np.ndarray) -> np.ndarray:
    """All singular values of M, descending, as accurate as a full SVD."""
    return _r_factor_svd(_short_side(M)[0], compute_uv=False)


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value, from the top eigenvalue of the short-side Gram matrix."""
    A, _ = _short_side(M)
    return float(_gram_spectrum(_gram(A))[0][-1])


def _divide(a, mu: float, out=None):
    """a / mu for a real scalar mu.

    numpy divides complex by real as (a + 0 b) * (1 / mu), so a complex a is
    multiplied by 1 / mu instead: the same values up to the sign of a zero,
    without the complex division.  Real a is divided as before.
    """
    if np.iscomplexobj(a):
        return np.multiply(a, 1.0 / mu, out=out)
    return np.divide(a, mu, out=out)


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


def decompose(D: np.ndarray, config: RpcaConfig = RpcaConfig()) -> Decomposition:
    D = np.ascontiguousarray(D)
    norm_f = np.linalg.norm(D)  # nan or inf when any entry is
    if not 0 < norm_f < math.inf:
        raise ConfigError("input matrix is zero or has non-finite entries")
    eta = config.resolve_eta(D.shape)
    norm2 = spectral_norm(D)
    d_max = np.max(np.abs(D))
    mu = MU0_FACTOR / norm2
    mu_cap = MU_CAP_FACTOR * mu

    # dual ascent seed: Y_0 = D / max(||D||_2, ||D||_inf / eta)
    Y = D / max(norm2, d_max / eta)
    S = np.zeros_like(Y)
    T = _divide(Y, mu)           # SVT input (Y/mu + D) - S; S_0 = 0
    T += D
    w = np.empty(CHUNK, Y.dtype)  # W = Y/mu + D, then mu R, then the next W
    r = np.empty(CHUNK, Y.dtype)  # W - L, then R = D - L - S
    converged = False
    residual = np.inf
    trace = []
    it = 0
    for it in range(1, config.max_iter + 1):
        start = time.perf_counter()
        L = None                     # free the last L before SVT allocates the next
        L = singular_value_threshold(T, 1.0 / mu)
        svt_end = time.perf_counter()
        mu_next = min(RHO * mu, mu_cap)
        sq_norm, nnz = 0.0, 0
        # SVT returns a tall L as an F-ordered transpose: read it through a C copy
        for d, y, l, s, t in _chunks(D, Y, np.ascontiguousarray(L), S, T):
            n = d.size
            wc, rc = w[:n], r[:n]
            _divide(y, mu, out=wc)                         # W = Y/mu + D
            wc += d
            soft_threshold(np.subtract(wc, l, out=rc), eta / mu, out=s)
            nnz += np.count_nonzero(s)
            np.subtract(d, l, out=rc)                      # R = D - L - S
            rc -= s
            sq_norm += np.vdot(rc, rc).real
            y += np.multiply(rc, mu, out=wc)
            _divide(y, mu_next, out=wc)                    # T = (Y/mu' + D) - S
            wc += d
            np.subtract(wc, s, out=t)
        del d, y, l, s, t            # slice views would keep L, Y and T alive
        residual = np.sqrt(sq_norm) / norm_f
        trace.append({"residual": float(residual), "mu": mu, "nnz": int(nnz),
                      "svt_s": svt_end - start, "pass_s": time.perf_counter() - svt_end})
        # require two sweeps: a degenerate first iterate can zero the residual
        # before the thresholded split has settled
        if residual <= config.tol and it >= 2:
            converged = True
            break
        mu = mu_next

    del Y, T                         # the QR in singular_values copies L twice
    sig = singular_values(L)
    rank = int(np.sum(sig > sig[0] * 1e-9)) if sig.size and sig[0] > 0 else 0
    return Decomposition(
        L=L, S=S, iterations=it, residual=float(residual), rank=rank,
        sparse_count=int(nnz), converged=converged, trace=trace,
    )


def decompose_windowed(D: np.ndarray, windows: int,
                       config: RpcaConfig = RpcaConfig()) -> Decomposition:
    """Split rows into consecutive slow-time blocks and decompose each.

    The conventional eta is recomputed per block (max(n1, n2) changes with
    the block height); an explicit eta is used unchanged.
    """
    D = np.asarray(D)
    if windows < 1 or windows > D.shape[0]:
        raise ConfigError("windows must be in [1, row count]")
    edges = np.linspace(0, D.shape[0], windows + 1).astype(int)
    L = np.zeros_like(D)
    S = np.zeros_like(D)
    iters = 0
    rank = 0
    nnz = 0
    converged = True
    trace = []
    for window, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if not np.any(D[a:b]):
            continue  # all-zero block separates trivially
        part = decompose(D[a:b], config)
        trace += [{**entry, "window": window} for entry in part.trace]
        L[a:b] = part.L
        S[a:b] = part.S
        iters = max(iters, part.iterations)
        rank += part.rank
        nnz += part.sparse_count
        converged = converged and part.converged
    norm_d = np.linalg.norm(D)  # 0 only when every block was skipped
    residual = float(np.linalg.norm(D - L - S) / norm_d) if norm_d else 0.0
    return Decomposition(
        L=L, S=S, iterations=iters, residual=residual, rank=rank,
        sparse_count=nnz, converged=converged,
        window_edges=list(edges), trace=trace,
    )
