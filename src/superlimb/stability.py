"""Quasi-static stability certification for body-support postures.

A supported body at pose p is held by a joint-servo-controlled chain
(tau = tau_bar - K_q dq).  Near an equilibrium pose the total potential

    U(p) = m g z_c(p) - tau_bar . dq + 1/2 dq' K_q dq,   dq = q(p) - q_bar

has Hessian

    K_p = m g E_z + J' K_q J - sum_i tau_bar_i H_i

with E_z the Hessian of the CoM height, J = dq/dp and H_i the Hessian of
the i-th joint coordinate, all evaluated at the equilibrium pose.  The
posture is stable in the quasi-static sense iff K_p is positive
semidefinite.  This module assembles K_p term by term from the closed-form
derivatives every posture supplies, certifies it against the
finite-difference Hessian of U (an independent check: the two must agree
at an equilibrium), and solves for the minimal uniform servo stiffness
that renders an unstable posture stable.  Floating-point overflow inside
the certificate is a NonFinite error, never a warning.

The pose vector is treated generically (any dimension); the overhead
support postures used by the CLI are 6-dimensional (3 translations, 3
fixed-axis rotation angles, valid locally around the equilibrium); their
builders are registered by name in ``POSTURES`` and built, with their
default parameters, by ``named_posture``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    IkFailure,
    NonFinite,
    NotSymmetric,
    RankDeficient,
    SuperlimbError,
    Unachievable,
    ValidationError,
)
# finite_diff_hessian is unused here, but the benchmark's tracer wraps it by
# this module's name (perfbench/tracer.py, the numerics.finite_diff_hessian span)
from .numerics import finite_diff_hessian  # noqa: F401
from .numerics import (default_fd_step, finite_diff_jacobian, hessian_stencil, psd_check,
                       stencil_hessian)
from .plant import GRAVITY, _each

RESIDUAL_TOL = 1e-6
EPS = float(np.finfo(float).eps)
PSD_TOL_FACTOR = 1e-8
CROSSCHECK_RTOL = 1e-3
DEFAULT_ALPHA_MAX = 1e6


class DiagnosticMismatch(UserWarning):
    """Analytic stiffness assembly disagrees with the finite-difference
    Hessian of the potential beyond tolerance."""


def _check_mass(mass) -> None:
    if not (mass > 0.0 and math.isfinite(float(mass) * GRAVITY)):
        raise ValidationError(f"must be > 0 with a finite weight m g, got {mass}", "mass")


def _vector(v, key: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise DimensionMismatch(f"must be 1-D, got shape {v.shape}", key)
    return v


@dataclass(frozen=True)
class SupportPosture:
    """Equilibrium posture of a supported body.

    ik_map sends a body pose to the support-chain joint vector; z_of_p
    sends a pose to the body CoM height.  Both only need to be evaluable
    in a neighborhood of p_bar.  Their derivatives are required closures
    of the pose: ik_jac, the Jacobian of ik_map (n_joint, n_pose); z_hess,
    the Hessian of z_of_p (n_pose, n_pose); and ik_hess, the Hessians of
    the joint coordinates (n_joint, n_pose, n_pose).

    An ik_map or z_of_p marked by ``_on_stacks`` (those of the named
    postures) also maps a (k, n_pose) stack of poses to its k values in one
    call, each bit for bit the value of its row alone.  Where both are
    marked, ``potential`` evaluates a stack in one pass; otherwise it takes
    the poses one at a time, closures and energy alike.  The mark is an
    attribute of the callable, so a closure swapped in by
    ``dataclasses.replace`` drops it (a wrapper made with
    ``functools.wraps`` copies it).
    """

    p_bar: np.ndarray
    q_bar: np.ndarray
    tau_bar: np.ndarray
    k_q: np.ndarray
    mass: float
    ik_map: Callable[[np.ndarray], np.ndarray]
    z_of_p: Callable[[np.ndarray], float]
    ik_jac: Callable[[np.ndarray], np.ndarray]
    z_hess: Callable[[np.ndarray], np.ndarray]
    ik_hess: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        for name in ("ik_map", "z_of_p", "ik_jac", "z_hess", "ik_hess"):
            if not callable(getattr(self, name)):
                raise ValidationError(f"{name} must be a callable of the pose")
        _check_mass(self.mass)
        p, q, tau = (_vector(getattr(self, name), name) for name in ("p_bar", "q_bar", "tau_bar"))
        kq = np.atleast_2d(np.asarray(self.k_q, dtype=float))
        if p.size == 0:
            raise ValidationError("the pose must have at least one coordinate", "p_bar")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q)) and np.all(np.isfinite(tau))):
            raise ValidationError("posture vectors must be finite")
        if tau.shape != q.shape:
            raise DimensionMismatch("tau_bar must match q_bar")
        if kq.shape != (q.size, q.size):
            raise DimensionMismatch(
                f"k_q must be {q.size}x{q.size}, got {kq.shape}"
            )
        ok, min_eig = psd_check(kq, tol=1e-9 * max(1.0, np.max(np.abs(kq))))
        if not ok:
            raise ValidationError(f"k_q must be PSD (min eigenvalue {min_eig:g})")
        object.__setattr__(self, "p_bar", p)
        object.__setattr__(self, "q_bar", q)
        object.__setattr__(self, "tau_bar", tau)
        object.__setattr__(self, "k_q", 0.5 * kq + 0.5 * kq.T)

    @property
    def n_pose(self) -> int:
        return self.p_bar.size

    @property
    def n_joint(self) -> int:
        return self.q_bar.size


# --- named support postures ---------------------------------------------------
#
# Each builder models the supported panel as a rigid body with 6-D pose
# (x, y, z, rx, ry, rz) held by a 6-DoF servo mount; differences lie in
# where the CoM sits relative to the mount frame and how the mount joints
# relate to the pose.  All are exact equilibria by construction.  A
# stiffness or coupling a builder derives from its parameters must be
# finite, and an error names the parameter it comes from.

def _finite(value: float, what: str, key: str) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"gives {what} = {value}, which is not finite", key)


def _on_stacks(f):
    """Mark ``f``, a closure written on the coordinates ``p[..., i]``, as
    taking a (k, n_pose) stack of poses as well as one pose, each row's
    value bit for bit its value alone.  A coordinate it reads bare goes
    through ``_float``, a cosine through ``_cos`` and a square through
    ``_square``: one element at a time, by libm's cos and pow, and on one
    pose as the numpy scalar or float a one-pose formula has."""
    f.on_stacks = True
    return f


_float, _cos = _each(float), _each(math.cos)
# x ** 2 as a numpy scalar takes it, by libm pow (an array's ** 2 is x * x)
_square = _each(np.float64(2.0).__rpow__)


@_on_stacks
def _identity_ik(p) -> np.ndarray:
    return np.array(p, dtype=float)


def _identity_jac(p) -> np.ndarray:
    return np.eye(6)


def _zero_ik_hess(p) -> np.ndarray:
    return np.zeros((6, 6, 6))


def _weight_on_z(mass: float) -> np.ndarray:
    tau = np.zeros(6)
    tau[2] = mass * GRAVITY
    return tau


def _rigid_panel(tilt_stiffness, com_side: float):
    """Builder of a panel on a rigid mount (ik linear) with its CoM a
    distance ``com_side * r`` above the mount frame: below (-1) gravity
    stiffens the tilt axes, above (+1) it destabilizes them, and at the
    frame (0) K_p equals the servo stiffness.  ``tilt_stiffness(k)`` is the
    rotational servo stiffness."""

    def build(mass: float, k: float, r: float, gamma: float) -> SupportPosture:
        kt = tilt_stiffness(k)
        offset = com_side * r
        _finite(mass * GRAVITY * offset, "gravity stiffness m g r", "r")

        @_on_stacks
        def z(p):
            return _float(p[..., 2]) + offset * _cos(p[..., 3]) * _cos(p[..., 4])

        def z_hess(p):
            c3, s3, c4, s4 = math.cos(p[3]), math.sin(p[3]), math.cos(p[4]), math.sin(p[4])
            h = np.zeros((6, 6))
            h[3, 3] = h[4, 4] = -offset * c3 * c4
            h[3, 4] = h[4, 3] = offset * s3 * s4
            return h

        return SupportPosture(
            p_bar=np.zeros(6), q_bar=np.zeros(6), tau_bar=_weight_on_z(mass),
            k_q=np.diag([k, k, k, kt, kt, kt]), mass=mass,
            ik_map=_identity_ik, z_of_p=z, ik_jac=_identity_jac, z_hess=z_hess,
            ik_hess=_zero_ik_hess,
        )

    return build


def _posture_cradle(mass: float, k: float, r: float, gamma: float) -> SupportPosture:
    # body resting in a curved cradle (height set by the horizontal pose),
    # no servo torques at all: pure gravity-curvature stability
    a = 2.0 / r
    _finite(mass * GRAVITY * a, "gravity stiffness 2 m g / r", "r")
    return SupportPosture(
        p_bar=np.zeros(6), q_bar=np.zeros(6), tau_bar=np.zeros(6),
        k_q=np.diag([0.01 * k] * 6), mass=mass, ik_map=_identity_ik,
        z_of_p=_on_stacks(lambda p: 0.5 * a * (_square(p[..., 0]) + _square(p[..., 1]))),
        ik_jac=_identity_jac, z_hess=lambda p: np.diag([a, a, 0.0, 0.0, 0.0, 0.0]),
        ik_hess=_zero_ik_hess,
    )


def _posture_toggle(mass: float, k: float, r: float, gamma: float) -> SupportPosture:
    # loaded vertical joint whose extension couples quadratically to tilt
    # (toggle linkage): the torque-times-curvature term eats servo stiffness
    _finite(2.0 * gamma * mass * GRAVITY, "coupling stiffness 2 gamma m g", "gamma")

    @_on_stacks
    def ik(p):
        q = np.array(p, dtype=float)
        q[..., 2] = _float(p[..., 2]) + gamma * (_square(p[..., 3]) + _square(p[..., 4]))
        return q

    def jac(p):
        j = np.eye(6)
        j[2, 3] = 2.0 * gamma * p[3]
        j[2, 4] = 2.0 * gamma * p[4]
        return j

    def ik_hess(p):
        h = np.zeros((6, 6, 6))
        h[2, 3, 3] = h[2, 4, 4] = 2.0 * gamma
        return h

    return SupportPosture(
        p_bar=np.zeros(6), q_bar=np.zeros(6), tau_bar=_weight_on_z(mass),
        k_q=np.diag([k, k, k, 2.0, 2.0, 2.0]), mass=mass,
        ik_map=ik, z_of_p=_on_stacks(lambda p: _float(p[..., 2])), ik_jac=jac,
        z_hess=lambda p: np.zeros((6, 6)), ik_hess=ik_hess,
    )


POSTURES = {
    "column": _rigid_panel(lambda k: 0.2 * k, 0.0),
    "hanging_panel": _rigid_panel(lambda k: 1.0, -1.0),
    "inverted_panel": _rigid_panel(lambda k: 0.0, 1.0),
    "cradle": _posture_cradle,
    "toggle_mount": _posture_toggle,
}


def named_posture(
    posture: str, mass: float = 4.0, k: float = 400.0, r: float = 0.3, gamma: float = 0.5
) -> SupportPosture:
    """The posture ``POSTURES[posture]`` of a body of ``mass`` held with
    servo stiffness ``k``, CoM offset ``r`` and toggle coupling ``gamma``
    (each builder uses the parameters its model has)."""
    if posture not in POSTURES:
        raise ValidationError(f"unknown posture; choose from {sorted(POSTURES)}", "posture")
    if not (k >= 0.0):
        raise ValidationError("must be >= 0", "k")
    if not (r > 0.0):
        raise ValidationError("must be positive", "r")
    _check_mass(mass)  # before the builders derive stiffnesses from the weight
    return POSTURES[posture](mass, k, r, gamma)


@dataclass(frozen=True)
class StabilityReport:
    """PSD verdict on a posture stiffness matrix k_p, with the relative
    error of the finite-difference cross-check and the inf-norm of the
    equilibrium residual (N) it was certified at.  The ascending
    eigenvalues of k_p, the margin (the smallest) and the verdict (margin
    >= -PSD_TOL_FACTOR max|k_p|) are derived from k_p."""

    k_p: np.ndarray
    diagnostic_mismatch: bool = False
    crosscheck_rel_err: float = math.nan
    equilibrium_residual: float = math.nan
    eigenvalues: np.ndarray = field(init=False)
    margin: float = field(init=False)
    is_stable: bool = field(init=False)

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k_p, dtype=float))
        if not np.all(np.isfinite(k)):
            raise NonFinite("k_p contains NaN or Inf")
        scale = np.max(np.abs(k))
        if np.max(np.abs(k - k.T)) > 1e-6 * scale:
            raise NotSymmetric("k_p must be symmetric")
        eigs = np.linalg.eigvalsh(k)
        object.__setattr__(self, "k_p", k)
        object.__setattr__(self, "eigenvalues", eigs)
        object.__setattr__(self, "margin", float(eigs[0]))
        object.__setattr__(self, "is_stable", bool(eigs[0] >= -PSD_TOL_FACTOR * scale))


def _ik(posture: SupportPosture, p: np.ndarray) -> np.ndarray:
    try:
        q = np.array(posture.ik_map(p), dtype=float, ndmin=1, copy=None)
    except SuperlimbError:
        raise
    except Exception as exc:  # user closure blew up: report as an IK failure
        raise IkFailure(f"ik_map failed at p={np.asarray(p)}: {exc}") from exc
    if q.shape != posture.q_bar.shape:
        raise IkFailure(
            f"ik_map returned shape {q.shape}, expected {posture.q_bar.shape}"
        )
    return q


def _z(posture: SupportPosture, p: np.ndarray) -> float:
    z = float(posture.z_of_p(p))
    if not math.isfinite(z):
        raise IkFailure(f"z_of_p returned non-finite value at p={np.asarray(p)}")
    return z


def _derivative(posture: SupportPosture, name: str, p: np.ndarray, shape: tuple) -> np.ndarray:
    """The posture's derivative closure ``name`` at p, shape-checked and
    finite."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(getattr(posture, name)(p), dtype=float)
    if d.shape != shape:
        raise DimensionMismatch(f"{name} must return shape {shape}, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise NonFinite(f"{name} returned NaN/Inf at p={p}")
    return d


def _ik_jacobian(posture: SupportPosture, p: np.ndarray) -> np.ndarray:
    return _derivative(posture, "ik_jac", p, (posture.n_joint, posture.n_pose))


def _residual(posture: SupportPosture) -> tuple[np.ndarray, float]:
    """Generalized-force balance at the equilibrium pose with no human force,
    and the largest |z_c| among the finite-difference sample points of its
    gravity gradient.  Gravity enters as the generalized force of the height
    potential, -m g dz_c/dp, so a posture whose servo torques carry the
    weight gives a zero vector."""
    z_abs = []

    def z(pp):
        v = _z(posture, pp)
        z_abs.append(abs(v))
        return v

    p = posture.p_bar
    grad_z = finite_diff_jacobian(z, p).ravel()
    j = _ik_jacobian(posture, p)
    return -posture.mass * GRAVITY * grad_z + j.T @ posture.tau_bar, max(z_abs)


def _energies(posture: SupportPosture, dq: np.ndarray, gz: np.ndarray) -> np.ndarray:
    """The potential of each pose of a stack from its joint offsets dq (one a
    row) and gravity terms gz = m g z: per row, the BLAS calls and roundings
    of m g z - tau_bar @ dq + 0.5 dq @ k_q @ dq on that pose alone."""
    u = gz - (posture.tau_bar @ dq[:, :, None])[:, 0]
    return u + (((0.5 * dq)[:, None, :] @ posture.k_q) @ dq[:, :, None])[:, 0, 0]


def potential(posture: SupportPosture, p: np.ndarray) -> float | np.ndarray:
    """Total potential of the supported body at pose p: gravity term, work
    of the constant torque offset, and the servo spring energy.

    p may also be a (k, n_pose) stack of poses; the k values then come back
    as an array, each bit for bit the value of its pose alone.  Where
    ``ik_map`` and ``z_of_p`` both take stacks (the named postures') and the
    caller's errstate ignores underflow, the maps and the energies run once
    on the whole stack, under ignored flags, and that result is kept when
    its shapes are right and every value is finite: an overflow or invalid
    operation leaves a NaN or Inf in its row's value, so a kept pass raised
    no flag but underflow.  Otherwise the poses run one at a time, under
    the caller's errstate, up to the first that raises (its error
    propagates) or whose value is not finite (every later row is NaN).
    """
    pv = np.array(p, dtype=float, ndmin=1, copy=None)
    n = posture.n_pose
    if pv.shape != (n,) and not (pv.ndim == 2 and pv.shape[1] == n):
        raise DimensionMismatch(f"p must have shape ({n},) or (k, {n}), got {pv.shape}")
    rows = pv.reshape(-1, n)  # a view: a closure writing into its pose writes into p
    ik, z = posture.ik_map, posture.z_of_p
    if (getattr(ik, "on_stacks", False) and getattr(z, "on_stacks", False)
            and np.geterr()["under"] == "ignore"):
        try:
            with np.errstate(all="ignore"):
                q, zs = ik(rows), z(rows)
                if (q.shape, zs.shape) == ((len(rows), posture.n_joint), (len(rows),)):
                    u = _energies(posture, q - posture.q_bar, posture.mass * GRAVITY * zs)
                    if np.isfinite(u).all():
                        return u if pv.ndim == 2 else float(u[0])
        except Exception:  # the loop raises it at its own row
            pass
    u = np.full(len(rows), math.nan)
    for k, row in enumerate(rows):
        dq = _ik(posture, row) - posture.q_bar
        u[k] = (posture.mass * GRAVITY * _z(posture, row) - posture.tau_bar @ dq
                + 0.5 * dq @ posture.k_q @ dq)
        if not math.isfinite(u[k]):
            break
    return u if pv.ndim == 2 else float(u[0])


def hessian_ez(posture: SupportPosture, p: np.ndarray) -> np.ndarray:
    """Hessian of the CoM height with respect to the pose: the posture's
    ``z_hess``, symmetrized."""
    h = _derivative(posture, "z_hess", p, (posture.n_pose, posture.n_pose))
    return 0.5 * (h + h.T)


def hessian_qi(posture: SupportPosture, p: np.ndarray, i: int) -> np.ndarray:
    """Hessian of the i-th support joint coordinate with respect to the
    pose: the posture's ``ik_hess``, symmetrized."""
    if not (0 <= i < posture.n_joint):
        raise DimensionMismatch(
            f"joint index {i} out of range for {posture.n_joint} joints"
        )
    n = posture.n_pose
    h = _derivative(posture, "ik_hess", p, (posture.n_joint, n, n))[i]
    return 0.5 * (h + h.T)


def _base_stiffness(posture: SupportPosture) -> tuple[np.ndarray, np.ndarray]:
    """Servo-free part of K_p, m g E_z - sum_i tau_bar_i H_i (exactly
    symmetric, as each Hessian is), and the ik Jacobian J at p_bar."""
    p = posture.p_bar
    base = posture.mass * GRAVITY * hessian_ez(posture, p)
    for i in range(posture.n_joint):
        ti = posture.tau_bar[i]
        if ti != 0.0:
            base = base - ti * hessian_qi(posture, p, i)
    return base, _ik_jacobian(posture, p)


def _overflow_is_numeric(certify):
    """``certify`` with floating-point overflow, invalid operations and
    division by zero raised as NonFinite instead of warned about."""

    @functools.wraps(certify)
    def guarded(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return certify(*args, **kwargs)
        except FloatingPointError as exc:
            raise NonFinite(f"{certify.__name__}: {exc}") from exc

    return guarded


@_overflow_is_numeric
def stiffness_matrix_kp(posture: SupportPosture) -> StabilityReport:
    """Assemble the posture stiffness matrix and certify it.

    Requires the posture to actually be an equilibrium with no human
    force: residual below 1e-6 max(1, m g) N plus the roundoff floor of its
    central-difference gravity gradient, m g eps max|z_c| / min h over the
    difference's sample points.  The analytic assembly is cross-checked
    against the finite-difference Hessian of the potential; disagreement
    beyond 0.1% relative raises a DiagnosticMismatch warning and flags the
    report, since at a true equilibrium the two are the same matrix.  The
    report carries that relative error and the residual.
    """
    res, z_max = _residual(posture)
    res_inf = float(np.max(np.abs(res))) if res.size else 0.0
    weight, h_min = posture.mass * GRAVITY, float(np.min(default_fd_step(posture.p_bar)))
    bound = RESIDUAL_TOL * max(1.0, weight) + weight * EPS * z_max / h_min
    if res_inf > bound:
        raise ValidationError(
            f"posture is not an equilibrium (residual {res_inf:.3e} N, bound {bound:.3e} N)"
        )
    base, j = _base_stiffness(posture)
    k_p = base + j.T @ posture.k_q @ j
    k_p = 0.5 * k_p + 0.5 * k_p.T
    stencil = hessian_stencil(posture.p_bar)
    fd = stencil_hessian(potential(posture, stencil), default_fd_step(posture.p_bar))
    denom = max(np.max(np.abs(k_p)), np.max(np.abs(fd)), 1e-30)
    rel_err = float(np.max(np.abs(k_p - fd)) / denom)
    mismatch = denom > 1e-9 and rel_err > CROSSCHECK_RTOL
    if mismatch:
        warnings.warn(
            "assembled stiffness disagrees with the potential Hessian "
            f"(rel err {rel_err:.3e})",
            DiagnosticMismatch,
            stacklevel=3,
        )
    return StabilityReport(k_p, mismatch, rel_err, res_inf)


@_overflow_is_numeric
def stabilizing_servo_stiffness(
    posture: SupportPosture,
    margin: float = 0.0,
    alpha_max: float = DEFAULT_ALPHA_MAX,
) -> float:
    """Minimal uniform servo stiffness rescue.

    Finds the smallest alpha such that replacing the servo stiffness by
    alpha*I makes the posture stiffness PSD with min eigenvalue >= margin.
    That is base + alpha J'J - margin I >= 0, so alpha is the largest
    eigenvalue of the symmetric-definite pencil (margin I - base, J'J)
    (zero if that is negative).  The returned value certifies the
    condition: where roundoff leaves the min eigenvalue a hair below the
    margin, alpha is stepped up by a few ulps until it is met.  SciPy's
    linalg module is imported on the first call: a certificate alone does
    not need it.
    """
    from scipy.linalg import eigh

    if not (0.0 <= margin < np.inf):
        raise ValidationError(f"margin must be finite and >= 0, got {margin}")
    base, j = _base_stiffness(posture)
    jtj = j.T @ j
    scale = max(np.max(np.abs(jtj)), 1e-30)
    if np.linalg.eigvalsh(jtj)[0] < 1e-12 * scale:
        raise RankDeficient(
            "servo stiffness cannot act on all pose directions (J'J singular)"
        )
    need = margin * np.eye(posture.n_pose) - base
    alpha = max(0.0, float(eigh(need, jtj, eigvals_only=True)[-1]))
    step = float(np.spacing(max(alpha, 1.0)))
    while alpha <= alpha_max and np.linalg.eigvalsh(base + alpha * jtj)[0] < margin:
        alpha += step
        step *= 2.0
    if not alpha <= alpha_max:  # NaN alpha_max too
        raise Unachievable(
            f"no alpha <= {alpha_max:g} reaches stability margin {margin:g}"
        )
    return alpha
