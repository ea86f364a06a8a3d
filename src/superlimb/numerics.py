"""Dense linear-algebra kernels used by the rest of the library.

Thin, contract-checked wrappers around LAPACK: full QR with a fixed sign
convention and the inertia-weighted (dynamically consistent)
pseudo-inverse call the routines directly, so a 4x4 problem costs little
more than the factorizations themselves; the SVD pseudo-inverse,
finite-difference derivatives and the positive-semidefiniteness test go
through numpy.  Every LAPACK ``info`` is checked and mapped to a
NumericError.  Everything operates on plain float ndarrays, except the
small positive definite solve that the simulator's step loop runs on
Python float lists; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from operator import mul
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dpotrf, dpotrs, dsyevd

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotSymmetric,
    NumericError,
    RankDeficient,
    SingularWeight,
)

#: relative threshold below which a QR diagonal entry counts as zero
QR_RANK_RTOL = 1e-10
#: factor applied to max(n, k) * sigma_max when truncating singular values
SVD_CUTOFF_FACTOR = 1e-12
#: condition-number bound beyond which a weighted Gram matrix is singular
GRAM_COND_MAX = 1e12

_TINY = np.finfo(float).tiny


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


def lapack_info(info: int, routine: str, error=NumericError, reason: str = ""):
    """Raise ``error`` for a nonzero LAPACK ``info``.

    ``info > 0`` is the routine's own numeric failure (described by
    ``reason``); ``info < 0`` names an illegal argument and is always a
    plain NumericError, so no LAPACK failure escapes as a raw exception.
    """
    if info > 0:
        raise error(f"{reason} ({routine} info={info})")
    if info < 0:
        raise NumericError(f"{routine}: illegal value in argument {-info}")


def cholesky(m: np.ndarray, error, reason: str) -> np.ndarray:
    """Upper Cholesky factor of a symmetric matrix for ``cholesky_solve``;
    raises ``error`` with ``reason`` when it is not positive definite."""
    c, info = dpotrf(m, lower=0, clean=0)
    lapack_info(info, "dpotrf", error, reason)
    return c


def cholesky_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve m x = b given the upper Cholesky factor ``c`` of m."""
    x, info = dpotrs(c, b)
    lapack_info(info, "dpotrs")
    return x


def spd_solve(m, rhs, error, reason: str) -> list[list[float]]:
    """Solve m x = b for each b in ``rhs`` in Python floats, ``m`` being a
    small symmetric positive definite matrix given as rows; raises
    ``error`` with ``reason`` when it is not positive definite.

    The operations follow LAPACK's unblocked ``dpotf2`` and the column
    order of BLAS ``dtrsm`` kernels, which multiply by reciprocal pivots;
    dividing by the pivots instead lets the static-hold scenario drift."""
    n = len(m)
    cols = [[] for _ in range(n)]  # cols[k][i] is the factor's entry (i, k)
    inv = []
    for j, mj in enumerate(m):
        cj = cols[j]
        d = mj[j] - sum(map(mul, cj, cj))
        if not d > 0.0:  # NaN fails too
            raise error(f"{reason} (leading minor {j + 1} is {d:.3e})")
        d = sqrt(d)
        inv.append(1.0 / d)
        for k in range(j + 1, n):
            cols[k].append((mj[k] - sum(map(mul, cj, cols[k]))) * inv[j])
        cj.append(d)
    out = []
    for b in rhs:
        x = list(b)
        for i in range(n):  # u^T y = b
            xi = x[i] = x[i] * inv[i]
            for k in range(i + 1, n):
                x[k] -= xi * cols[k][i]
        for i in range(n - 1, -1, -1):  # u x = y
            xi = x[i] = x[i] * inv[i]
            ci = cols[i]
            for k in range(i):
                x[k] -= xi * ci[k]
        out.append(x)
    return out


def _as_vector(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


@dataclass(frozen=True)
class QrFactorization:
    """Full QR factorization m = q @ [[r], [0]].

    q is n-by-n orthogonal, r is the k-by-k upper-triangular block with a
    non-negative diagonal, so the factorization is unique for full-rank
    input.
    """

    q: np.ndarray
    r: np.ndarray
    n: int
    k: int


def qr_full(m) -> QrFactorization:
    """Full (complete) QR factorization of an n-by-k matrix, n >= k >= 1.

    Raises RankDeficient when the smallest |r_ii| falls below
    ``QR_RANK_RTOL`` times the largest, i.e. the columns of ``m`` are not
    numerically independent.
    """
    a = _as_matrix(m, "m")
    n, k = a.shape
    if not (n >= k >= 1):
        raise DimensionMismatch(f"need n >= k >= 1, got shape {a.shape}")
    qr, tau, _, info = dgeqrf(a)
    lapack_info(info, "dgeqrf")
    # dorgqr expands the k reflectors into all n columns of Q
    reflectors = np.empty((n, n), order="F")
    reflectors[:, :k] = qr
    q, _, info = dorgqr(reflectors, tau, overwrite_a=1)
    lapack_info(info, "dorgqr")
    r = qr[:k].copy()
    for i in range(1, k):
        r[i, :i] = 0.0  # below the diagonal dgeqrf stores the reflectors
    # fix the sign convention: make every diagonal entry of R non-negative
    # (a -0.0 diagonal flips too, but then the rank check below fails)
    flip = np.copysign(1.0, r.diagonal())
    q[:, :k] *= flip
    r *= flip[:, np.newaxis]
    d = r.diagonal().tolist()
    lo, hi = min(d), max(d)
    if lo < QR_RANK_RTOL * max(hi, _TINY):
        raise RankDeficient(f"matrix rank < {k}: |r_ii| range [{lo:.3e}, {hi:.3e}]")
    return QrFactorization(q=q, r=r, n=n, k=k)


def svd_pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values sigma_i <= max(n, k) * sigma_max * 1e-12 are truncated
    to zero, so an (effectively) zero matrix maps to the zero matrix of the
    transposed shape.
    """
    a = _as_matrix(m, "m")
    if a.size == 0:
        return np.zeros(a.shape[::-1])
    return np.linalg.pinv(a, rcond=max(a.shape) * SVD_CUTOFF_FACTOR)


def dyn_consistent_pinv(w, a) -> np.ndarray:
    """Inertia-weighted right pseudo-inverse  a^-1 w^T (w a^-1 w^T)^-1.

    ``w`` is k-by-n with full row rank, ``a`` an n-by-n symmetric positive
    definite weight (the joint-space inertia).  The result X satisfies
    w @ X = I_k and picks, among all right inverses, the one whose range is
    orthogonal to null(w) in the metric induced by ``a``.

    Raises SingularWeight if ``a`` is not SPD and RankDeficient if the
    weighted Gram matrix w a^-1 w^T is (numerically) singular.
    """
    wm = _as_matrix(w, "w")
    am = _as_matrix(a, "a")
    k, n = wm.shape
    if n == 0 or am.shape != (n, n):
        raise DimensionMismatch(f"weight must be {n}x{n} with n >= 1, got {am.shape}")
    if np.abs(am - am.T).max() > 1e-9 * (1.0 + np.abs(am).max()):
        raise SingularWeight("weight matrix is not symmetric")
    chol = cholesky(
        0.5 * (am + am.T), SingularWeight, "weight matrix is not positive definite"
    )
    if k == 0:
        return np.zeros((n, 0))
    # X = A^-1 W^T via two triangular solves
    x = cholesky_solve(chol, wm.T)
    gram = wm @ x
    gram = 0.5 * (gram + gram.T)
    # gram is symmetric PSD, so its 2-norm condition number is the ratio of
    # its extreme eigenvalues; a non-positive smallest one is singular
    eig, _, info = dsyevd(gram, compute_v=0)
    lapack_info(info, "dsyevd", reason="eigenvalues of w a^-1 w^T did not converge")
    if not eig[0] * GRAM_COND_MAX >= eig[-1] > 0.0:
        raise RankDeficient("w a^-1 w^T is numerically singular")
    # X gram^-1 = (gram^-1 X^T)^T, gram being symmetric
    gram_chol = cholesky(gram, RankDeficient, "w a^-1 w^T is not positive definite")
    return cholesky_solve(gram_chol, x.T).T


def default_fd_step(p0: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference step 1e-4 * (1 + |p0_i|)."""
    return 1e-4 * (1.0 + np.abs(np.asarray(p0, dtype=float)))


def finite_diff_jacobian(f: Callable, p0) -> np.ndarray:
    """Central-difference Jacobian of a vector map f: R^n -> R^m at p0,
    with the step of ``default_fd_step``."""
    p = _as_vector(p0, "p0")
    h = default_fd_step(p)
    f0 = np.atleast_1d(np.asarray(f(p), dtype=float))
    jac = np.zeros((f0.size, p.size))
    for i in range(p.size):
        dp = np.zeros_like(p)
        dp[i] = h[i]
        fp = np.atleast_1d(np.asarray(f(p + dp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(p - dp), dtype=float))
        jac[:, i] = (fp - fm) / (2.0 * h[i])
    if not np.all(np.isfinite(jac)):
        raise NonFinite("map returned NaN/Inf during differentiation")
    return jac


def finite_diff_hessian(f: Callable, p0) -> np.ndarray:
    """Symmetrized central-difference Hessian of a scalar map at p0.

    The step is 1e-4 * (1 + |p0_i|) per coordinate.  Raises NonFinite if
    any function evaluation is NaN or Inf.
    """
    p = _as_vector(p0, "p0")
    m = p.size
    h = default_fd_step(p)

    def ev(dp):
        v = float(f(p + dp))
        if not np.isfinite(v):
            raise NonFinite("function returned NaN/Inf during differentiation")
        return v

    hess = np.zeros((m, m))
    f0 = ev(np.zeros_like(p))
    for i in range(m):
        ei = np.zeros_like(p)
        ei[i] = h[i]
        hess[i, i] = (ev(ei) - 2.0 * f0 + ev(-ei)) / (h[i] * h[i])
        for j in range(i + 1, m):
            ej = np.zeros_like(p)
            ej[j] = h[j]
            val = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (
                4.0 * h[i] * h[j]
            )
            hess[i, j] = val
            hess[j, i] = val
    return 0.5 * (hess + hess.T)


def psd_check(m, tol: float) -> tuple[bool, float]:
    """Test a symmetric matrix for positive semidefiniteness.

    Returns (is_psd, min_eigenvalue).  The input is symmetrized first; if
    the asymmetry exceeds ``tol`` (inf-norm) NotSymmetric is raised.  The
    verdict is min_eigenvalue >= -tol.
    """
    a = _as_matrix(m, "m")
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if float(tol) < 0.0:
        raise ValueError("tol must be >= 0")
    if a.size == 0:
        return True, 0.0
    if np.max(np.abs(a - a.T)) > tol:
        raise NotSymmetric(
            f"asymmetry {np.max(np.abs(a - a.T)):.3e} exceeds tol {tol:.3e}"
        )
    sym = 0.5 * (a + a.T)
    eigs = np.linalg.eigvalsh(sym)
    min_eig = float(eigs[0])
    return min_eig >= -float(tol), min_eig
