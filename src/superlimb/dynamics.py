"""Joint-torque / support-force decoupling of the contacted dynamics.

The coupled system obeys  A qdd + h = tau + J_c^T lambda, where lambda is
the contact force at the supported point.  A QR factorization
J_c^T = Q1 R splits the equation into the constrained directions (the k
columns of Q1) and their complement.  One k-by-k solve through Q1 gives
the torque that produces the motion in the complement; back-substitution
on R then yields the support force.  The returned pair is one feasible
solution of the underdetermined system - the split between actuation and
support is not unique.

The split and the value rules of its inputs run as straight-line code
that ``_split`` generates once per shape with ``numerics``' emitters, to the
bit what a loop over Python float lists computes.  ``decouple`` takes a
``DynamicsSnapshot``, the library's checked array form, or the step
kernel's float lists, which the simulator's inverse-dynamics step hands it
with no array round trip; ``constraint_force`` factors with ``_contact_qr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import hypot
from operator import mul

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SingularWeight
from .numerics import (QR_RANK_RTOL, _check_finite, _function, _spd_solve_source, _sum, _unpack,
                       check_rank, dyn_consistent_pinv, symmetric_part)
# unused here: perfbench's tracer (perfbench/tracer.py) wraps it in this module
from .numerics import qr_full  # noqa: F401
from .plant import AXES

#: why a contact's rows are rank deficient, in the tracking solve and the split
DEPENDENT_CONTACTS = "contact directions are not independent at this posture"


@dataclass(frozen=True)
class DynamicsSnapshot:
    """Instantaneous dynamics data (A, h, J_c, qdd) for one decoupling.

    A must be symmetric positive definite, J_c full row rank with
    k <= n rows.
    """

    a: np.ndarray
    h_bias: np.ndarray
    j_c: np.ndarray
    qdd: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        h = np.asarray(self.h_bias, dtype=float)
        jc = np.atleast_2d(np.asarray(self.j_c, dtype=float))
        qdd = np.asarray(self.qdd, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if h.shape != (n,) or qdd.shape != (n,):
            raise DimensionMismatch("h_bias and qdd must match a's dimension")
        if jc.shape[1] != n or not (1 <= jc.shape[0] <= n):
            raise DimensionMismatch(
                f"j_c must be k x {n} with 1 <= k <= {n}, got {jc.shape}"
            )
        sym = symmetric_part(a, DimensionMismatch, "a must be symmetric")
        _split(n, jc.shape[0], None)(sym.tolist(), h.tolist(), jc.tolist(), qdd.tolist())
        object.__setattr__(self, "a", sym)
        object.__setattr__(self, "h_bias", h)
        object.__setattr__(self, "j_c", jc)
        object.__setattr__(self, "qdd", qdd)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.j_c.shape[0]


@dataclass(frozen=True)
class DecoupledSolution:
    """One feasible (tau, lambda) pair satisfying A qdd + h = tau + J_c^T
    lambda, together with the null projection used and the achieved
    equation residual (inf norm)."""

    tau: np.ndarray
    lam: np.ndarray
    n_kc: np.ndarray
    residual_inf: float


def selection_matrices(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_k, S_kc): selectors of the first k and the remaining n-k rows."""
    if not (0 <= k <= n):
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    eye = np.eye(n)
    return eye[:k, :], eye[k:, :]


def null_projection(s_kc_qt: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Projector N = I - (S_kc Q^T)^+ (S_kc Q^T) with the inertia-weighted
    pseudo-inverse; maps onto the subspace the unconstrained rows cannot
    see.  With zero rows it is the identity; with n independent rows it is
    zero."""
    w = np.atleast_2d(np.asarray(s_kc_qt, dtype=float))
    am = np.asarray(a, dtype=float)
    n = am.shape[0]
    if w.size == 0:
        w = w.reshape(0, n)
    if w.shape[1] != n:
        raise DimensionMismatch(f"projector rows must have length {n}")
    return np.eye(n) - dyn_consistent_pinv(w, am) @ w


def _contact_qr(j_c, reason: str = "") -> tuple[list[list[float]], list[list[float]]]:
    """J_c^T = Q1 R in Python floats, ``j_c`` given as its k rows: the k
    orthonormal columns of Q1 (as rows) and the k-by-k upper-triangular R
    with a non-negative diagonal, the factorization ``qr_full`` returns.

    Classical Gram-Schmidt with one reorthogonalization, which keeps Q1
    orthonormal to roundoff even for nearly parallel rows.  Raises
    RankDeficient by ``qr_full``'s rank rule (``check_rank``, with ``reason``)."""
    k = len(j_c)
    q1, r = [], [[0.0] * k for _ in range(k)]
    for j, v in enumerate(j_c):
        if q1:
            for _ in range(2):
                c = [sum(map(mul, qi, v)) for qi in q1]
                v = [x - sum(map(mul, c, col)) for x, col in zip(v, zip(*q1))]
                for i, ci in enumerate(c):
                    r[i][j] += ci
        d = r[j][j] = hypot(*v)
        q1.append([x / d for x in v] if d > 0.0 else v)
    check_rank([r[i][i] for i in range(k)], reason)
    return q1, r


def _back_substitute(r, y) -> list[float]:
    """x with R x = y, R upper triangular with a nonzero diagonal."""
    x = list(y)
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - sum(map(mul, r[i][i + 1:], x[i + 1:]))) / r[i][i]
    return x


@cache
def _split(n: int, k: int, projector: bool | None):
    """``decouple``'s split for n DoFs and k contact rows, ``split(a, h, j_c,
    qdd)`` on float lists (``a``, ``j_c`` as rows), as straight-line source
    compiled once per shape (the code generation of RobCoGen, Frigerio et
    al., JOSER 2016).  It keeps every operation of the list-and-``sum()``
    loop it unrolls, so results and error messages are the same to the bit:
    the value rules first (NonFinite for a NaN or Inf, the first input named
    winning; SingularWeight unless ``a`` is positive definite), which are
    all with ``projector`` None; then ``_contact_qr``'s Gram-Schmidt and the
    split, returning ``(tau, lam)``, and with ``projector`` the rows of N."""
    cols, rows, body = range(n), range(k), []

    def names(form: str, size: int = n) -> str:
        return ", ".join(form.format(i) for i in range(size))

    for name, src in [*((f"a{r}_", f"a[{r}]") for r in cols), ("h", "h"),
                      *((f"q{r}_", f"j_c[{r}]") for r in rows), ("dd", "qdd")]:
        _unpack(body, name, src, n)
    scans = {"a": [f"a{r}_{c}" for r in cols for c in cols], "h_bias": [f"h{i}" for i in cols],
             "j_c": [f"q{r}_{c}" for r in rows for c in cols], "qdd": [f"dd{i}" for i in cols]}
    for name, entries in scans.items():
        _check_finite(body, entries, name)
    _spd_solve_source(body, lambda j, c: f"a{j}_{c}", n, (), "a", SingularWeight,
                      "a is not positive definite")
    if projector is not None:
        for j in rows:  # Gram-Schmidt with one reorthogonalization; Q1's rows replace J_c's
            for again in range(2 if j else 0):
                for i in range(j):
                    _sum(body, [f"q{i}_{x} * q{j}_{x}" for x in cols], f"p{i}")
                for x in cols:
                    s = _sum(body, [f"p{i} * q{i}_{x}" for i in range(j)])
                    body.append(f"q{j}_{x} = q{j}_{x}{s}")
                body += [f"r{i}_{j} {'+=' if again else '= 0.0 +'} p{i}" for i in range(j)]
            body += [f"r{j}_{j} = hypot({names(f'q{j}_{{}}')})", f"if r{j}_{j} > 0.0:",
                     f"    {names(f'q{j}_{{}}')} = {names(f'q{j}_{{}} / r{j}_{j}')}"]
        body.append(f"check_rank([{', '.join(f'r{i}_{i}' for i in rows)}], {DEPENDENT_CONTACTS!r})")
        for x in cols:
            _sum(body, [f"a{x}_{c} * dd{c}" for c in cols], f"b{x}")
            body.append(f"b{x} += h{x}")
        if k == n:
            for i in rows:
                _sum(body, [f"q{i}_{x} * b{x}" for x in cols], f"y{i}")
            out = [f"[{names('0.0')}]", repr([[float(i == j) for j in cols] for i in cols])]
        else:
            for i in rows:  # the rows of Q1^T A, Q1^T A b and the triangle of Q1^T A Q1
                for r in cols:
                    _sum(body, [f"a{r}_{x} * q{i}_{x}" for x in cols], f"w{i}_{r}")
                _sum(body, [f"w{i}_{r} * b{r}" for r in cols], f"e{i}")
                for j in range(i, k):
                    _sum(body, [f"w{i}_{x} * q{j}_{x}" for x in cols], f"m{i}_{j}")
            # with the projector, the columns of Q1^T A give (Q1^T A Q1)^-1 Q1^T A too
            solves = [("y", [f"e{i}" for i in rows])]
            solves += [(f"g{c}_", [f"w{i}_{c}" for i in rows]) for c in cols if projector]
            _spd_solve_source(body, lambda j, c: f"m{j}_{c}", k, solves, "m", SingularWeight,
                              "q1^T a q1 is not positive definite")
            for x in cols:
                s = _sum(body, [f"q{i}_{x} * y{i}" for i in rows])
                body.append(f"t{x} = b{x}{s}")
                for c in cols if projector else ():
                    _sum(body, [f"q{i}_{x} * g{c}_{i}" for i in rows], f"n{x}_{c}")
            out = [f"[{names('t{}')}]",
                   "[" + ", ".join(f"[{names(f'n{x}_{{}}')}]" for x in cols) + "]"]
        for i in reversed(rows):  # R lambda = y
            s = _sum(body, [f"r{i}_{j} * lam{j}" for j in range(i + 1, k)])
            body.append(f"lam{i} = (y{i}{s}) / r{i}_{i}")
        body.append(f"return {out[0]}, [{names('lam{}', k)}]{', ' + out[1] if projector else ''}")
    return _function("split(a, h, j_c, qdd)", body, f"inverse split: n={n}, k={k}",
                     check_rank=check_rank)


def decouple(snapshot: DynamicsSnapshot | tuple) -> DecoupledSolution | tuple:
    """Split the required generalized force into joint torques and a
    support force in the code ``_split`` generates: with J_c^T = Q1 R and
    b = A qdd + h, y = (Q1^T A Q1)^-1 Q1^T A b, lambda = R^-1 y and
    tau = b - Q1 y (with k = n, tau = 0 and y = Q1^T b).  The projector
    N = Q1 (Q1^T A Q1)^-1 Q1^T A is I - W^+ W with W = S_kc Q^T and the
    inertia-weighted W^+ (Mistry, Buchli & Schaal, ICRA 2010).

    Given a ``DynamicsSnapshot`` (checked when it was built), returns the
    ``DecoupledSolution`` with N and the equation's residual.  Given the
    step kernel's ``(a, h, j_c, qdd)`` float lists (``a`` symmetric, as
    rows; ``j_c`` as its k rows), checks their values (no shape check) and
    returns ``(tau, lam)`` lists: the simulator's inverse-dynamics step
    (perfbench's tracer counts it here).  Raises RankDeficient if J_c loses
    row rank and SingularWeight if Q1^T A Q1 is not SPD."""
    if not isinstance(snapshot, DynamicsSnapshot):
        return _split(len(snapshot[0]), len(snapshot[2]), False)(*snapshot)
    a, h, j_c, qdd = snapshot.a, snapshot.h_bias, snapshot.j_c, snapshot.qdd
    tau, lam, n_kc = map(np.array, _split(*j_c.shape[::-1], True)(
        a.tolist(), h.tolist(), j_c.tolist(), qdd.tolist()))
    residual = a @ qdd + h - tau - j_c.T @ lam
    return DecoupledSolution(tau, lam, n_kc, residual_inf=float(np.abs(residual).max()))


def constraint_force(snapshot: DynamicsSnapshot, tau_applied) -> np.ndarray:
    """Support force implied by the motion under a known applied torque:
    lambda = R^-1 Q1^T (A qdd + h - tau), with ``decouple``'s factors.
    This is the sensor-equivalent contact force, in contrast to decouple()
    which also chooses the torque."""
    tau = np.asarray(tau_applied, dtype=float)
    if tau.shape != (snapshot.n,):
        raise DimensionMismatch(
            f"tau_applied must have shape ({snapshot.n},), got {tau.shape}"
        )
    q1, r = _contact_qr(snapshot.j_c.tolist())
    b = (snapshot.a @ snapshot.qdd + snapshot.h_bias - tau).tolist()
    return np.array(_back_substitute(r, [sum(map(mul, qi, b)) for qi in q1]))


# --- plant-facing helpers -----------------------------------------------------


@dataclass(frozen=True)
class ContactSpec:
    """Supported point and constrained Cartesian directions.

    ``joint=None`` selects the chain's last link (its tip); directions are
    a subset of ``AXES`` for the planar plant.
    """

    chain: str
    directions: tuple[str, ...] = ("z",)
    joint: int | None = None
    #: the directions' rows in point positions and Jacobians
    rows: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        if not self.directions:
            raise DimensionMismatch("must constrain at least one direction", "directions")
        for d in self.directions:
            if d not in AXES:
                raise DimensionMismatch(f"unknown direction {d!r}", "directions")
        if len(set(self.directions)) != len(self.directions):
            raise DimensionMismatch("must be distinct", "directions")
        object.__setattr__(self, "rows", [AXES.index(d) for d in self.directions])


def contact_jacobian(jac, contact: ContactSpec) -> list[list[float]]:
    """Rows of the support-point Jacobian for the constrained directions,
    from the point's full Jacobian given as two float rows (x, z).

    Raises RankDeficient when a constrained row vanishes against the
    point's full Jacobian (below ``QR_RANK_RTOL`` times its largest entry):
    the point cannot move along that direction at this posture, so no
    finite support force along it is determined."""
    size = [max(map(abs, row)) for row in jac]
    floor = QR_RANK_RTOL * max(size)
    rows = [jac[row] for row in contact.rows]
    for d, row in zip(contact.directions, contact.rows):
        if size[row] < floor:
            raise RankDeficient(
                f"contact Jacobian lost rank: direction {d!r} vanishes at this posture"
            )
    return rows
