"""Joint-torque / support-force decoupling of the contacted dynamics.

The coupled system obeys  A qdd + h = tau + J_c^T lambda, where lambda is
the contact force at the supported point.  A QR factorization
J_c^T = Q1 R splits the equation into the constrained directions (the k
columns of Q1) and their complement.  One k-by-k solve through Q1 gives
the torque that produces the motion in the complement; back-substitution
on R then yields the support force.  The returned pair is one feasible
solution of the underdetermined system - the split between actuation and
support is not unique.

The split runs on Python float lists (``_decouple_rows``), and the value
rules of its inputs are written once (``_check_values``).  ``decouple``
takes a ``DynamicsSnapshot``, the library's checked array form, or the
step kernel's float lists, which the simulator's inverse-dynamics step
hands it with no array round trip; ``constraint_force`` shares its QR.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from math import hypot, isfinite
from operator import add, mul

import numpy as np

from .errors import DimensionMismatch, NonFinite, RankDeficient, SingularWeight
from .numerics import QR_RANK_RTOL, dyn_consistent_pinv, spd_solve
# unused here: perfbench's tracer (perfbench/tracer.py) wraps it in this module
from .numerics import qr_full  # noqa: F401
from .plant import AXES, PlantModel


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
        with np.errstate(invalid="ignore", over="ignore"):  # NaN or Inf: _check_values
            if np.abs(a - a.T).max() > 1e-9 * (1.0 + np.abs(a).max()):
                raise DimensionMismatch("a must be symmetric")
        _check_values(a.tolist(), h.tolist(), jc.tolist(), qdd.tolist())
        object.__setattr__(self, "a", 0.5 * (a + a.T))
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


def _check_values(a, h, j_c, qdd):
    """The value rules of a decoupling's inputs, on Python float lists
    (``a`` and ``j_c`` as rows): NonFinite for a NaN or Inf entry or an
    ``a + a^T`` that overflows, SingularWeight unless ``a`` is positive
    definite."""
    for name, values in (("a", chain(*a)), ("h_bias", h), ("j_c", chain(*j_c)), ("qdd", qdd)):
        if not all(map(isfinite, values)):
            raise NonFinite(f"{name} contains NaN or Inf")
    if not all(map(isfinite, map(add, chain(*a), chain(*zip(*a))))):
        raise NonFinite("a + a^T overflows")
    spd_solve(a, (), SingularWeight, "a is not positive definite")


def _contact_qr(j_c) -> tuple[list[list[float]], list[list[float]]]:
    """J_c^T = Q1 R in Python floats, ``j_c`` given as its k rows: the k
    orthonormal columns of Q1 (as rows) and the k-by-k upper-triangular R
    with a non-negative diagonal, the factorization ``qr_full`` returns.

    Classical Gram-Schmidt with one reorthogonalization, which keeps Q1
    orthonormal to roundoff even for nearly parallel rows.  Raises
    RankDeficient when the smallest r_ii falls below ``QR_RANK_RTOL``
    times the largest (NaN included)."""
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
    diag = [r[i][i] for i in range(k)]
    lo, hi = min(diag), max(diag)
    floor = QR_RANK_RTOL * max(hi, sys.float_info.min)
    if not all(d >= floor for d in diag):
        raise RankDeficient(f"matrix rank < {k}: |r_ii| range [{lo:.3e}, {hi:.3e}]")
    return q1, r


def _back_substitute(r, y) -> list[float]:
    """x with R x = y, R upper triangular with a nonzero diagonal."""
    x = list(y)
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - sum(map(mul, r[i][i + 1:], x[i + 1:]))) / r[i][i]
    return x


def _decouple_rows(a, h, j_c, qdd, projector: bool = False):
    """``decouple`` on Python float lists: ``a`` (symmetric, as rows), the
    bias ``h``, the contact rows ``j_c`` and the acceleration ``qdd``.
    Returns ``(tau, lam, n_kc)``, the projector ``n_kc`` (as rows) only
    when ``projector`` is set and None otherwise.

    With J_c^T = Q1 R and b = A qdd + h, one k-by-k solve gives
    y = (Q1^T A Q1)^-1 Q1^T A b; then lambda = R^-1 y and tau = b - Q1 y.
    The projector Q1 (Q1^T A Q1)^-1 Q1^T A is I - W^+ W with W = S_kc Q^T
    and the inertia-weighted W^+ (Mistry, Buchli & Schaal, ICRA 2010),
    formed without A^-1 or W.  With k = n the torque is zero and y = Q1^T b.

    The inputs are taken as checked (``_check_values``).  Raises
    RankDeficient if J_c loses row rank and SingularWeight if Q1^T A Q1 is
    not SPD."""
    q1, r = _contact_qr(j_c)
    n = len(a)
    b = [sum(map(mul, row, qdd)) + hi for row, hi in zip(a, h)]
    n_kc = None
    if len(q1) == n:
        tau = [0.0] * n
        y = [sum(map(mul, qi, b)) for qi in q1]
        if projector:
            n_kc = [[float(i == j) for j in range(n)] for i in range(n)]
    else:
        aq = [[sum(map(mul, row, qi)) for row in a] for qi in q1]  # rows of Q1^T A
        rhs = [[sum(map(mul, aqi, b)) for aqi in aq]]
        if projector:  # the columns of Q1^T A, so that (Q1^T A Q1)^-1 Q1^T A comes too
            rhs += [list(col) for col in zip(*aq)]
        y, *g = spd_solve([[sum(map(mul, aqi, qj)) for qj in q1] for aqi in aq], rhs,
                          SingularWeight, "q1^T a q1 is not positive definite")
        q1_rows = list(zip(*q1))
        tau = [bi - sum(map(mul, qrow, y)) for bi, qrow in zip(b, q1_rows)]
        if projector:
            n_kc = [[sum(map(mul, qrow, gc)) for gc in g] for qrow in q1_rows]
    return tau, _back_substitute(r, y), n_kc


def decouple(snapshot: DynamicsSnapshot | tuple) -> DecoupledSolution | tuple:
    """Split the required generalized force into joint torques and a
    support force with ``_decouple_rows``.

    Given a ``DynamicsSnapshot`` (checked when it was built), returns the
    ``DecoupledSolution``, with the null projection used and the equation's
    residual.  Given the step kernel's ``(a, h, j_c, qdd)`` as a tuple of
    Python float lists (``a`` symmetric, as rows; ``j_c`` as its k rows),
    checks their values (``_check_values``, no shape check) and returns
    only ``(tau, lam)`` as lists: the simulator's inverse-dynamics step,
    with no array round trip.  One entry point serves both, so every
    decoupling goes through ``decouple`` (perfbench's tracer counts it
    here).  Raises RankDeficient if J_c loses row rank and SingularWeight
    if Q1^T A Q1 is not SPD.
    """
    if not isinstance(snapshot, DynamicsSnapshot):
        _check_values(*snapshot)
        return _decouple_rows(*snapshot)[:2]
    rows = (snapshot.a, snapshot.h_bias, snapshot.j_c, snapshot.qdd)
    tau, lam, n_kc = map(np.array, _decouple_rows(*(m.tolist() for m in rows), projector=True))
    residual = snapshot.a @ snapshot.qdd + snapshot.h_bias - tau - snapshot.j_c.T @ lam
    return DecoupledSolution(
        tau=tau,
        lam=lam,
        n_kc=n_kc,
        residual_inf=float(np.abs(residual).max()),
    )


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


def contact_jacobian(model: PlantModel, q, contact: ContactSpec) -> np.ndarray:
    """Rows of the support-point Jacobian for the constrained directions.

    Raises RankDeficient when a constrained row vanishes against the
    point's full Jacobian (below ``QR_RANK_RTOL`` times its largest entry):
    the point cannot move along that direction at this posture, so no
    finite support force along it is determined."""
    kin = model.state(q).kin
    jac = model.tip_jacobian(kin, model.link_index(contact.chain, contact.joint))
    return np.array(_contact_rows(jac, contact))


def _contact_rows(jac, contact: ContactSpec) -> list[list[float]]:
    """``contact_jacobian`` on the point's full Jacobian given as two
    float rows (x, z): the constrained rows, with the same rank check."""
    size = [max(map(abs, row)) for row in jac]
    floor = QR_RANK_RTOL * max(size)
    rows = [jac[row] for row in contact.rows]
    for d, row in zip(contact.directions, contact.rows):
        if size[row] < floor:
            raise RankDeficient(
                f"contact Jacobian lost rank: direction {d!r} vanishes at this posture"
            )
    return rows
