"""Task-space stiffness control of the limb's support point.

The limb renders a virtual spring: commanded force
F = K (x_eq - x) + F_gravity, with four selectable stiffness levels and a
shiftable equilibrium point, mapped to joint torques through the task
Jacobian transpose.  A Coulomb + viscous + stiction joint-friction model
reproduces the force-displacement hysteresis of real actuators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import mul, sub

import numpy as np

from .errors import BadLevel, DimensionMismatch, SingularStiffness
from .numerics import psd_check, svd_pinv

#: velocity deadband separating stuck from moving joints (rad/s)
V_EPS = 1e-3

#: the four default stiffness levels, N/m on each commanded direction
DEFAULT_LEVELS = (100.0, 200.0, 400.0, 800.0)


def default_stiffness_table(m: int = 2) -> tuple[np.ndarray, ...]:
    """Four diagonal stiffness matrices for an m-dimensional task space."""
    return tuple(level * np.eye(m) for level in DEFAULT_LEVELS)


def _check_psd(k: np.ndarray, what: str):
    tol = 1e-8 * max(1.0, float(np.max(np.abs(k))))
    ok, min_eig = psd_check(k, tol)
    if not ok:
        raise DimensionMismatch(
            f"{what} must be symmetric PSD (min eigenvalue {min_eig:.3e})"
        )


@dataclass(frozen=True)
class TaskSpaceController:
    """Virtual-spring controller state: stiffness, equilibrium point and
    load feedforward, plus an optional task-space damping term (not part of
    the reference behaviour; defaults to zero)."""

    k_task: np.ndarray
    x_eq: np.ndarray
    f_gravity: np.ndarray
    level: int | None = None
    damping: np.ndarray | None = None

    def __post_init__(self):
        k = np.atleast_2d(np.asarray(self.k_task, dtype=float))
        x = np.atleast_1d(np.asarray(self.x_eq, dtype=float))
        fg = np.atleast_1d(np.asarray(self.f_gravity, dtype=float))
        m = k.shape[0]
        if k.shape != (m, m):
            raise DimensionMismatch(f"k_task must be square, got {k.shape}")
        if x.shape != (m,) or fg.shape != (m,):
            raise DimensionMismatch("x_eq and f_gravity must match k_task dimension")
        _check_psd(k, "k_task")
        if self.level is not None and self.level not in (1, 2, 3, 4):
            raise BadLevel(f"level must be in 1..4, got {self.level}")
        d = self.damping
        if d is not None:
            d = np.atleast_1d(np.asarray(d, dtype=float))
            if d.shape != (m,):
                raise DimensionMismatch("damping must be one value per direction")
            if np.any(d < 0.0):
                raise DimensionMismatch("damping must be >= 0")
        object.__setattr__(self, "k_task", k)
        object.__setattr__(self, "x_eq", x)
        object.__setattr__(self, "f_gravity", fg)
        object.__setattr__(self, "damping", d)

    @property
    def m(self) -> int:
        return self.k_task.shape[0]


def control_force(ctrl: TaskSpaceController, x, xdot=None, x_eq=None) -> np.ndarray:
    """Commanded task force F = K (x_eq - x) + F_gravity.

    ``x_eq`` (default ``ctrl.x_eq``) evaluates the law about a shifted
    equilibrium point without building and re-validating a new controller.
    When the controller carries a damping vector and ``xdot`` is given, a
    -damping * xdot term is added.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.shape != (ctrl.m,):
        raise DimensionMismatch(f"x must have shape ({ctrl.m},), got {xv.shape}")
    if x_eq is None:
        x_eq = ctrl.x_eq
    else:
        x_eq = np.atleast_1d(np.asarray(x_eq, dtype=float))
        if x_eq.shape != (ctrl.m,):
            raise DimensionMismatch(f"x_eq must have shape ({ctrl.m},), got {x_eq.shape}")
    if ctrl.damping is not None and xdot is not None:
        xd = np.atleast_1d(np.asarray(xdot, dtype=float))
        if xd.shape != (ctrl.m,):
            raise DimensionMismatch(f"xdot must have shape ({ctrl.m},)")
        xdot = xd.tolist()
    return np.array(_control_force(ctrl, x_eq.tolist(), xv.tolist(), xdot))


def _control_force(ctrl: TaskSpaceController, x_eq, x, xdot) -> list[float]:
    """``control_force`` on plain float lists, unchecked."""
    e = list(map(sub, x_eq, x))
    f = [sum(map(mul, row, e)) + fg for row, fg in zip(ctrl.k_task.tolist(), ctrl.f_gravity.tolist())]
    if ctrl.damping is not None and xdot is not None:
        f = list(map(sub, f, map(mul, ctrl.damping.tolist(), xdot)))
    return f


def set_stiffness_level(
    ctrl: TaskSpaceController, level: int, table
) -> TaskSpaceController:
    """Select one of the four configured stiffness matrices (1-based)."""
    entries = [np.atleast_2d(np.asarray(k, dtype=float)) for k in table]
    if len(entries) != 4:
        raise BadLevel(f"stiffness table must have exactly 4 entries, got {len(entries)}")
    if not isinstance(level, (int, np.integer)) or not (1 <= level <= 4):
        raise BadLevel(f"level must be in 1..4, got {level}")
    for i, k in enumerate(entries):
        if k.shape != (ctrl.m, ctrl.m):
            raise DimensionMismatch(f"table entry {i + 1} has shape {k.shape}")
        _check_psd(k, f"table entry {i + 1}")
    return replace(ctrl, k_task=entries[level - 1], level=int(level))


def shift_equilibrium(ctrl: TaskSpaceController, delta_f) -> TaskSpaceController:
    """Move the equilibrium point so the spring force changes by delta_f.

    x_eq <- x_eq + K^-1 delta_f.  Raises SingularStiffness when the
    stiffness cannot produce the requested change (delta_f outside the
    range of a singular K).
    """
    df = np.atleast_1d(np.asarray(delta_f, dtype=float))
    if df.shape != (ctrl.m,):
        raise DimensionMismatch(f"delta_f must have shape ({ctrl.m},)")
    if not np.any(df):
        return ctrl
    dx = svd_pinv(ctrl.k_task) @ df
    achieved = ctrl.k_task @ dx
    if np.max(np.abs(achieved - df)) > 1e-9 * max(1.0, float(np.max(np.abs(df)))):
        raise SingularStiffness(
            "k_task is singular along a commanded force direction"
        )
    return replace(ctrl, x_eq=ctrl.x_eq + dx)


def task_to_joint_torque(j_task, f) -> np.ndarray:
    """Static map of a task force to joint torques: tau = J^T F."""
    j = np.atleast_2d(np.asarray(j_task, dtype=float))
    fv = np.atleast_1d(np.asarray(f, dtype=float))
    if j.shape[0] != fv.shape[0]:
        raise DimensionMismatch(
            f"task Jacobian has {j.shape[0]} rows but force has {fv.shape[0]}"
        )
    return np.array(_task_to_joint_torque(j.T.tolist(), fv.tolist()), dtype=float)


def _task_to_joint_torque(j_cols, f) -> list[float]:
    """``task_to_joint_torque`` on plain float lists, J given by its
    columns, unchecked."""
    return [sum(map(mul, col, f)) for col in j_cols]


@dataclass(frozen=True)
class FrictionModel:
    """Per-joint Coulomb + viscous friction with a stiction band."""

    coulomb: np.ndarray
    viscous: np.ndarray
    stiction_breakaway_ratio: float = 1.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coulomb, dtype=float))
        v = np.atleast_1d(np.asarray(self.viscous, dtype=float))
        if c.shape != v.shape:
            raise DimensionMismatch("coulomb and viscous must have the same length")
        if np.any(c < 0.0) or np.any(v < 0.0):
            raise DimensionMismatch("friction coefficients must be >= 0")
        if not (self.stiction_breakaway_ratio >= 1.0):
            raise DimensionMismatch("stiction_breakaway_ratio must be >= 1")
        object.__setattr__(self, "coulomb", c)
        object.__setattr__(self, "viscous", v)


def friction_torque(model: FrictionModel, qdot, tau_applied) -> np.ndarray:
    """Joint friction torque.

    Moving joints (|qd| > V_EPS) see kinetic friction
    -sign(qd) coulomb - viscous qd; stuck joints resist the applied torque
    up to the breakaway level ratio * coulomb.
    """
    qd = np.atleast_1d(np.asarray(qdot, dtype=float))
    tau = np.atleast_1d(np.asarray(tau_applied, dtype=float))
    if qd.shape != model.coulomb.shape or tau.shape != model.coulomb.shape:
        raise DimensionMismatch("qdot/tau_applied must match friction dimensions")
    return np.array(_friction_torque(model, qd.tolist(), tau.tolist()))


def _friction_torque(model: FrictionModel, qdot, tau_applied) -> list[float]:
    """``friction_torque`` on plain float lists, unchecked.  A NaN velocity
    counts as stuck and a NaN applied torque passes through."""
    out = []
    for c, v, w, t in zip(model.coulomb.tolist(), model.viscous.tolist(), qdot, tau_applied):
        if abs(w) > V_EPS:
            out.append((-c if w > 0.0 else c) - v * w)
        else:
            b = model.stiction_breakaway_ratio * c
            out.append(-min(max(t, -b), b))
    return out
