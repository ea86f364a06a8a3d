"""Dense linear-algebra kernels used by the rest of the library.

Thin, contract-checked wrappers: full QR with a fixed sign convention
and a rank rule.  The one Cholesky, ``spd_solve``, runs on Python float
lists (the simulator's step loop calls it); the inertia-weighted
(dynamically consistent) pseudo-inverse solves through it.  The QR, the
SVD pseudo-inverse, finite-difference derivatives and the eigenvalue
tests go through numpy.
Everything else operates on plain float ndarrays; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from operator import mul
from typing import Callable

import numpy as np

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


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


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


def symmetric_part(a: np.ndarray, error, reason: str) -> np.ndarray:
    """0.5 (a + a^T) of a square float array symmetric to 1e-9 (1 + max|a|),
    else ``error`` with ``reason`` (an overflowing asymmetry is one); raises
    NonFinite for a NaN or Inf entry or an ``a + a^T`` that overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.abs(a - a.T).max() > 1e-9 * (1.0 + np.abs(a).max()):
            raise error(reason)
        sym = 0.5 * (a + a.T)
    if not np.isfinite(sym).all():
        raise NonFinite("a + a^T overflows" if np.isfinite(a).all() else "a contains NaN or Inf")
    return sym


def check_rank(diag: list[float]):
    """Raise RankDeficient unless every |r_ii| of a QR factorization, given
    as ``diag``, is at least ``QR_RANK_RTOL`` times the largest (NaN fails)."""
    lo, hi = min(diag), max(diag)
    floor = QR_RANK_RTOL * max(hi, _TINY)
    if not all(d >= floor for d in diag):
        raise RankDeficient(f"matrix rank < {len(diag)}: |r_ii| range [{lo:.3e}, {hi:.3e}]")


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
    a = _as_array(m, "m", 2)
    n, k = a.shape
    if not (n >= k >= 1):
        raise DimensionMismatch(f"need n >= k >= 1, got shape {a.shape}")
    q, r = np.linalg.qr(a, mode="complete")
    r = r[:k]
    # fix the sign convention: make every diagonal entry of R non-negative
    # (a -0.0 diagonal flips too, but then the rank check below fails)
    flip = np.copysign(1.0, r.diagonal())
    q[:, :k] *= flip
    r *= flip[:, np.newaxis]
    check_rank(r.diagonal().tolist())
    return QrFactorization(q=q, r=r, n=n, k=k)


def svd_pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values sigma_i <= max(n, k) * sigma_max * 1e-12 are truncated
    to zero, so an (effectively) zero matrix maps to the zero matrix of the
    transposed shape.
    """
    a = _as_array(m, "m", 2)
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
    wm = _as_array(w, "w", 2)
    am = _as_array(a, "a", 2)
    k, n = wm.shape
    if n == 0 or am.shape != (n, n):
        raise DimensionMismatch(f"weight must be {n}x{n} with n >= 1, got {am.shape}")
    sym = symmetric_part(am, SingularWeight, "weight matrix is not symmetric")
    # X = A^-1 W^T, one solve per row of w
    x = np.array(spd_solve(sym.tolist(), wm.tolist(), SingularWeight,
                           "weight matrix is not positive definite")).T
    if k == 0:
        return np.zeros((n, 0))
    gram = wm @ x
    gram = 0.5 * (gram + gram.T)
    # gram is symmetric PSD, so its 2-norm condition number is the ratio of
    # its extreme eigenvalues; a non-positive smallest one is singular
    try:
        eig = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalues of w a^-1 w^T did not converge: {exc}") from exc
    if not eig[0] * GRAM_COND_MAX >= eig[-1] > 0.0:
        raise RankDeficient("w a^-1 w^T is numerically singular")
    # the rows of X gram^-1 are gram^-1 times the rows of X, gram being symmetric
    return np.array(spd_solve(gram.tolist(), x.tolist(), RankDeficient,
                              "w a^-1 w^T is not positive definite"))


def default_fd_step(p0: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference step 1e-4 * (1 + |p0_i|)."""
    return 1e-4 * (1.0 + np.abs(np.asarray(p0, dtype=float)))


def finite_diff_jacobian(f: Callable, p0) -> np.ndarray:
    """Central-difference Jacobian of a vector map f: R^n -> R^m at p0,
    with the step of ``default_fd_step``.  Each evaluation gets its own
    copy of the pose."""
    p = _as_array(p0, "p0", 1)
    h = default_fd_step(p)
    steps = np.diag(h)  # row i is h_i e_i
    up, dn = p + steps, p - steps
    f0 = np.array(f(p.copy()), dtype=float, ndmin=1, copy=None)
    jac = np.zeros((f0.size, p.size))
    for i in range(p.size):
        fp = np.array(f(up[i].copy()), dtype=float, ndmin=1, copy=None)
        fm = np.array(f(dn[i].copy()), dtype=float, ndmin=1, copy=None)
        jac[:, i] = (fp - fm) / (2.0 * h[i])
    if not np.all(np.isfinite(jac)):
        raise NonFinite("map returned NaN/Inf during differentiation")
    return jac


def finite_diff_hessian(f: Callable, p0) -> np.ndarray:
    """Central-difference Hessian of a scalar map at p0, symmetric by
    construction.

    The step is 1e-4 * (1 + |p0_i|) per coordinate.  Each evaluation gets
    its own copy of the pose, so a map that writes into its argument moves
    no later point.  Raises NonFinite if any function evaluation is NaN or
    Inf.
    """
    p = _as_array(p0, "p0", 1)
    m = p.size
    h = default_fd_step(p)
    steps = np.diag(h)  # row i is h_i e_i
    up, dn = p + steps, p - steps

    def ev(pp):
        v = float(f(pp))
        if not isfinite(v):
            raise NonFinite("function returned NaN/Inf during differentiation")
        return v

    hess = np.zeros((m, m))
    f0 = ev(p + 0.0)  # not p.copy(): p + 0 reads a -0.0 coordinate as +0.0
    for i in range(m):
        ui, di = up[i], dn[i]
        hess[i, i] = (ev(ui.copy()) - 2.0 * f0 + ev(di.copy())) / (h[i] * h[i])
        for j in range(i + 1, m):
            # the offsets have disjoint support, so (p + h_i e_i) + h_j e_j
            # is the point p + (h_i e_i + h_j e_j), bit for bit
            sj = steps[j]
            val = (ev(ui + sj) - ev(ui - sj) - ev(di + sj) + ev(di - sj)) / (
                4.0 * h[i] * h[j]
            )
            hess[i, j] = val
            hess[j, i] = val
    return hess


def psd_check(m, tol: float) -> tuple[bool, float]:
    """Test a symmetric matrix for positive semidefiniteness.

    Returns (is_psd, min_eigenvalue).  The input is symmetrized first; if
    the asymmetry exceeds ``tol`` (inf-norm) NotSymmetric is raised.  The
    verdict is min_eigenvalue >= -tol.
    """
    a = _as_array(m, "m", 2)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if float(tol) < 0.0:
        raise ValueError("tol must be >= 0")
    if a.size == 0:
        return True, 0.0
    with np.errstate(over="ignore"):  # an asymmetry that overflows is still one
        asym = np.max(np.abs(a - a.T))
    if asym > tol:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tol {tol:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)  # a + a.T could overflow
    min_eig = float(eigs[0])
    return min_eig >= -float(tol), min_eig
