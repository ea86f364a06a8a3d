"""Dense linear-algebra kernels used by the rest of the library.

Thin, contract-checked wrappers: full QR with a fixed sign convention and
a rank rule, the SVD pseudo-inverse, finite-difference derivatives and the
eigenvalue tests go through numpy.  The one Cholesky, ``_spd_solve_source``,
emits straight-line code over Python floats; ``spd_solve`` compiles it per
shape, and the contact solve and inverse-dynamics split inline it.  With
``_unpack``, ``_check_finite`` and ``_sum`` it emits the generated code of
the library, which ``_function``, the one compile site, turns into functions;
``_live`` drops the statements whose values nothing returned depends on.
Everything else operates on plain float ndarrays; all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from math import cos, hypot, isfinite, sin, sqrt
from typing import Callable

import numpy as np

from . import errors
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
#: absolute floor of a QR diagonal entry, the square root of the smallest
#: normal float: a column shorter than it squares to a subnormal, and a
#: lone contact row that short gives a force lambda = y / r_11 that
#: overflows once |y| passes 2.7e154
QR_RANK_ATOL = sqrt(np.finfo(float).tiny)
#: relative floor of a Gram matrix's Cholesky pivots: a pivot over its
#: diagonal entry is the squared sine of the angle between that row and the
#: span of the rows before it, and where the angle is zero rounding leaves
#: about 1e-16 of it; the floor on the (unsquared) angle is 1e-5, as the QR
#: rank rule's is QR_RANK_RTOL on |r_ii|
GRAM_PIVOT_RTOL = 1e-10
#: factor applied to max(n, k) * sigma_max when truncating singular values
SVD_CUTOFF_FACTOR = 1e-12
#: condition-number bound beyond which a weighted Gram matrix is singular
GRAM_COND_MAX = 1e12


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{name} contains NaN or Inf")
    return a


def _unpack(body: list[str], name: str, src: str, size: int):
    """Append the statement ``name0, name1, ... = src`` of ``size`` names."""
    body.append(f"{''.join(f'{name}{i}, ' for i in range(size))}= {src}")


def _check_finite(body: list[str], names, what: str):
    """Append the check raising NonFinite for ``what`` unless all ``names`` are finite."""
    body += [f"if not ({' and '.join(f'isfinite({v})' for v in names)}):",
             f"    raise NonFinite('{what} contains NaN or Inf')"]


def _sum(body: list[str], terms: list[str], name: str = "s", start: str = "0.0") -> str:
    """Append statements leaving ``start`` plus each term, left to right, in
    ``name``; the 0.0 start rounds as ``sum()``'s int 0 does (-0.0 included).
    Returns " - name" to subtract it, or "" for no terms (x - 0 is x)."""
    if not terms:
        return ""
    body += [f"{name} = {start} + {terms[0]}"] + [f"{name} += {term}" for term in terms[1:]]
    return f" - {name}"


#: the globals of generated code besides its caller's names
_GLOBALS = {**{f.__name__: f for f in (cos, sin, sqrt, hypot, isfinite)},
            **{name: v for name, v in vars(errors).items() if isinstance(v, type)}}


def _function(signature: str, body: list[str], label: str, **names):
    """The function ``def signature:`` over ``body``, compiled as ``<label>``
    with ``_GLOBALS`` and ``names`` as its globals: the library's one compile site."""
    namespace = {**_GLOBALS, **names}
    exec(compile(f"def {signature}:\n" + "".join(f"    {line}\n" for line in body),
                 f"<{label}>", "exec"), namespace)
    return namespace[signature[:signature.index("(")]]


#: a statement that stores plain names, with nothing but names, float
#: literals, ``+``, ``-``, ``*`` and parentheses in its values: the targets,
#: the operator before the ``=`` (none for a store), the values
_STORE = re.compile(r"((?:\w+, )*\w+) ([-+*]?)= ([\w. +*(),-]*)", re.ASCII)
#: what makes such values able to raise: a call, a power
_RAISES = re.compile(r"\w\(|\*\*", re.ASCII)
#: a name in generated code (not the exponent of a float literal)
_NAME = re.compile(r"\b[A-Za-z_]\w*", re.ASCII)


def _live(body: list[str]) -> list[str]:
    """``body`` without the statements whose values nothing after them
    reads: one backward liveness pass over straight-line code, by names.
    A statement goes only if it is a ``_STORE`` of one value per target,
    none of them live, that cannot raise.  Every other line stays, with
    its effects: control flow, a call, a division, an unpacking, a
    subscript store, the return; each name it mentions is live.  Kept
    lines keep their text and order."""
    live, kept = set(), []
    for line in reversed(body):
        used, store = line, _STORE.fullmatch(line)
        targets = store[1].split(", ") if store else ()
        if targets and len(targets) == store[3].count(",") + 1 and not _RAISES.search(store[3]):
            if live.isdisjoint(targets):
                continue
            if not store[2]:  # a store, not an update: the values before it are dead
                live.difference_update(targets)
            used = store[3]
        live.update(_NAME.findall(used))
        kept.append(line)
    return kept[::-1]


def _spd_solve_source(body: list[str], entry, size: int, solves, tag: str, error, reason: str,
                      rtol: float = 0.0):
    """Append the Cholesky solve for one size as straight-line code: factor
    the matrix whose entry (j, c), c >= j, is named ``entry(j, c)`` into
    names ``l<tag>...``/``i<tag>...``, raising ``error`` (by its class name)
    with ``reason`` at a pivot that is not positive (or is below ``rtol``
    times its diagonal entry), then solve for each ``(out, rhs)`` of
    ``solves``, leaving the solution in ``out0``, ...; with none, the factor
    is a check and its last reciprocal pivot is not computed.  The operations follow
    LAPACK's unblocked ``dpotf2`` and the column order of BLAS ``dtrsm``
    kernels, which multiply by reciprocal pivots; dividing by the pivots
    instead lets the static-hold scenario drift."""
    def f(i, j):  # the factor's entry (i, j), i > j
        return f"l{tag}{i}_{j}"

    reason = reason.replace("{", "{{").replace("}", "}}")  # literal text of an f-string
    for j in range(size):
        s = _sum(body, [f"{f(j, i)} * {f(j, i)}" for i in range(j)])
        text = f"{reason} (leading minor {j + 1} is {{d:.3e}})"
        floor = f" or d < {rtol!r} * {entry(j, j)}" if rtol else ""
        body += [f"d = {entry(j, j)}{s}", f"if not d > 0.0{floor}:  # NaN fails too",
                 f"    raise {error.__name__}(f{text!r})"]
        if solves or j + 1 < size:  # the last reciprocal pivot serves only the solves
            body.append(f"i{tag}{j} = 1.0 / sqrt(d)")
        for c in range(j + 1, size):
            s = _sum(body, [f"{f(j, i)} * {f(c, i)}" for i in range(j)])
            body.append(f"{f(c, j)} = ({entry(j, c)}{s}) * i{tag}{j}")
    for out, rhs in solves:
        _unpack(body, out, f"{', '.join(rhs)},", size)
        for i in range(size):  # u^T y = b
            body.append(f"{out}{i} *= i{tag}{i}")
            body += [f"{out}{c} -= {out}{i} * {f(c, i)}" for c in range(i + 1, size)]
        for i in reversed(range(size)):  # u x = y
            body.append(f"{out}{i} *= i{tag}{i}")
            body += [f"{out}{c} -= {out}{i} * {f(i, c)}" for c in range(i)]


@cache
def _spd_solver(size: int, count: int, error, reason: str, rtol: float):
    solves = [(f"x{r}_", [f"rhs[{r}][{i}]" for i in range(size)]) for r in range(count)]
    body = []
    _spd_solve_source(body, lambda j, c: f"m[{j}][{c}]", size, solves, "", error, reason, rtol)
    rows = (", ".join(f"{out}{i}" for i in range(size)) for out, _ in solves)
    body.append(f"return [{', '.join(f'[{row}]' for row in rows)}]")
    return _function("solve(m, rhs)", body, f"spd solve: n={size}, rhs={count}",
                     **{error.__name__: error})


def spd_solve(m, rhs, error, reason: str, rtol: float = 0.0) -> list[list[float]]:
    """Solve m x = b for each row b of ``rhs`` in Python floats, ``m`` being
    a small symmetric positive definite matrix given as rows (n >= 1);
    raises ``error`` with ``reason`` when it is not positive definite, or
    when a pivot is below ``rtol`` times its diagonal entry.  Runs the code of
    ``_spd_solve_source``, compiled once per (n, len(rhs), error, reason, rtol)."""
    return _spd_solver(len(m), len(rhs), error, reason, rtol)(m, rhs)


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


def check_rank(diag: list[float], reason: str = ""):
    """Raise RankDeficient, saying ``reason`` if given, unless each |r_ii| of a QR
    factorization, ``diag``, is at least ``QR_RANK_RTOL`` times the largest and
    at least ``QR_RANK_ATOL`` (NaN fails)."""
    lo, hi = min(diag), max(diag)
    floor = max(QR_RANK_RTOL * hi, QR_RANK_ATOL)
    if not all(d >= floor for d in diag):
        span = f"|r_ii| range [{lo:.3e}, {hi:.3e}]"
        raise RankDeficient(f"{reason} ({span})" if reason
                            else f"matrix rank < {len(diag)}: {span}")


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


@cache
def _stencil_plan(m: int) -> tuple[np.ndarray, ...]:
    """For an m-D pose: the order that takes the rows p0, p0 + h_i e_i,
    p0 - h_i e_i and each pair's four corners (pairs in ``np.triu_indices``
    order) to ``hessian_stencil``'s order; the rows of the points
    p0 + h_i e_i, p0 - h_i e_i and of each pair's corners in that order; and
    the pairs' i and j."""
    i_pair, j_pair = np.triu_indices(m, 1)
    order, pair = [0], 1 + 2 * m
    for i in range(m):
        order += [1 + i, 1 + m + i, *range(pair, pair + 4 * (m - 1 - i))]
        pair += 4 * (m - 1 - i)
    at = np.argsort(order)
    return (np.array(order), at[1 : 1 + m], at[1 + m : 1 + 2 * m],
            at[1 + 2 * m :].reshape(-1, 4), i_pair, j_pair)


def hessian_stencil(p0) -> np.ndarray:
    """The 1 + 2m + 2m(m - 1) points of ``finite_diff_hessian``'s stencil
    at p0 (m = p0.size), one per row, in the order it evaluates them: p0 + 0
    (which reads a -0.0 coordinate as +0.0); then for each i, p0 + h_i e_i
    and p0 - h_i e_i, followed for each j > i by the corners
    (p0 + h_i e_i) + h_j e_j, (p0 + h_i e_i) - h_j e_j,
    (p0 - h_i e_i) + h_j e_j and (p0 - h_i e_i) - h_j e_j, each made by
    those additions."""
    p = _as_array(p0, "p0", 1)
    order, *_, i, j = _stencil_plan(p.size)
    steps = np.diag(default_fd_step(p))  # row i is h_i e_i
    up, dn = p + steps, p - steps
    u, d, s = up[i], dn[i], steps[j]  # per pair: p0 + h_i e_i, p0 - h_i e_i, h_j e_j
    corners = np.stack((u + s, u - s, d + s, d - s), axis=1).reshape(-1, p.size)
    return np.concatenate(((p + 0.0)[None], up, dn, corners))[order]


def stencil_hessian(values, h) -> np.ndarray:
    """The central-difference Hessian from a map's ``values`` at the points
    of ``hessian_stencil``, in its order, with the steps ``h``; symmetric by
    construction.  Raises NonFinite if a value is NaN or Inf."""
    u = np.asarray(values, dtype=float)
    if not np.isfinite(u).all():
        raise NonFinite("function returned NaN/Inf during differentiation")
    m = h.size
    _, up, dn, corners, i, j = _stencil_plan(m)
    a, b, c, d = u[corners].T
    hess = np.empty((m, m))
    hess.flat[:: m + 1] = (u[up] - 2.0 * u[0] + u[dn]) / (h * h)
    hess[i, j] = hess[j, i] = (a - b - c + d) / (4.0 * h[i] * h[j])
    return hess


def finite_diff_hessian(f: Callable, p0) -> np.ndarray:
    """Central-difference Hessian of a scalar map at p0, symmetric by
    construction: ``stencil_hessian`` of f at the points of
    ``hessian_stencil``.

    The step is 1e-4 * (1 + |p0_i|) per coordinate.  Each evaluation gets
    its own copy of the pose, so a map that writes into its argument moves
    no later point.  Raises NonFinite at the first function evaluation that
    is NaN or Inf, and evaluates no point after it.
    """
    p = _as_array(p0, "p0", 1)
    values = []
    for pp in hessian_stencil(p):
        values.append(float(f(pp)))
        if not isfinite(values[-1]):
            break
    return stencil_hessian(values, default_fd_step(p))


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
