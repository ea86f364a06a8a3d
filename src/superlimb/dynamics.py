"""Joint-torque / support-force decoupling of the contacted dynamics.

The coupled system obeys  A qdd + h = tau + J_c^T lambda, where lambda is
the contact force at the supported point.  A full QR factorization of
J_c^T = Q [R; 0] rotates the equation into a constrained block (first k
rows) and an unconstrained block (remaining n-k rows).  The unconstrained
block determines a torque that produces the motion; the constrained block
then yields the support force.  The returned pair is one feasible solution
of the underdetermined system - the split between actuation and support is
not unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, NonFinite, RankDeficient, SingularWeight
from .numerics import QR_RANK_RTOL, dyn_consistent_pinv, lapack_info, qr_full, spd_solve
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
        for name, arr in (("a", a), ("h_bias", h), ("j_c", jc), ("qdd", qdd)):
            if not np.isfinite(arr).all():
                raise NonFinite(f"{name} contains NaN or Inf")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if h.shape != (n,) or qdd.shape != (n,):
            raise DimensionMismatch("h_bias and qdd must match a's dimension")
        if jc.shape[1] != n or not (1 <= jc.shape[0] <= n):
            raise DimensionMismatch(
                f"j_c must be k x {n} with 1 <= k <= {n}, got {jc.shape}"
            )
        if np.abs(a - a.T).max() > 1e-9 * (1.0 + np.abs(a).max()):
            raise DimensionMismatch("a must be symmetric")
        a = 0.5 * (a + a.T)
        if not np.isfinite(a).all():
            raise NonFinite("a + a^T overflows")
        spd_solve(a.tolist(), (), SingularWeight, "a is not positive definite")
        object.__setattr__(self, "a", a)
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


def _solve_r(r: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back-substitution R x = rhs with the upper-triangular QR factor."""
    x, info = dtrtrs(r, rhs)
    lapack_info(info, "dtrtrs", RankDeficient, "contact Jacobian lost row rank")
    return x


def decouple(snapshot: DynamicsSnapshot) -> DecoupledSolution:
    """Split the required generalized force into joint torques and a
    support force.

    With J_c^T = Q1 R from ``qr_full`` and b = A qdd + h, one k-by-k solve
    gives y = (Q1^T A Q1)^-1 Q1^T A b; then lambda = R^-1 y and
    tau = b - Q1 y.  The projector Q1 (Q1^T A Q1)^-1 Q1^T A is I - W^+ W
    with W = S_kc Q^T and the inertia-weighted W^+ (Mistry, Buchli &
    Schaal, ICRA 2010), formed without A^-1 or W.  Raises RankDeficient if
    J_c loses row rank and SingularWeight if Q1^T A Q1 is not SPD.
    """
    n, k = snapshot.n, snapshot.k
    fact = qr_full(snapshot.j_c.T)
    q1, r = fact.q[:, :k], fact.r
    b = snapshot.a @ snapshot.qdd + snapshot.h_bias
    if k == n:
        n_kc = np.eye(n)
        tau = np.zeros(n)
        y = q1.T @ b
    else:
        q1t_a = q1.T @ snapshot.a
        g = np.array(spd_solve((q1t_a @ q1).tolist(), q1t_a.T.tolist(), SingularWeight,
                               "q1^T a q1 is not positive definite")).T
        n_kc = q1 @ g
        y = g @ b
        tau = b - q1 @ y
    lam = _solve_r(r, y)
    residual = b - tau - snapshot.j_c.T @ lam
    return DecoupledSolution(
        tau=tau,
        lam=lam,
        n_kc=n_kc,
        residual_inf=float(np.abs(residual).max()),
    )


def constraint_force(snapshot: DynamicsSnapshot, tau_applied) -> np.ndarray:
    """Support force implied by the motion under a known applied torque:
    lambda = R^-1 S_k Q^T (A qdd + h - tau).  This is the sensor-equivalent
    contact force, in contrast to decouple() which also chooses the torque."""
    tau = np.asarray(tau_applied, dtype=float)
    if tau.shape != (snapshot.n,):
        raise DimensionMismatch(
            f"tau_applied must have shape ({snapshot.n},), got {tau.shape}"
        )
    fact = qr_full(snapshot.j_c.T)
    b = snapshot.a @ snapshot.qdd + snapshot.h_bias - tau
    return _solve_r(fact.r, fact.q[:, : snapshot.k].T @ b)


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
