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

from .errors import BadLevel, DimensionMismatch, NotSymmetric, SingularStiffness, ValidationError
from .numerics import psd_check, svd_pinv

#: velocity deadband separating stuck from moving joints (rad/s)
V_EPS = 1e-3

#: the four default stiffness levels, N/m on each commanded direction
DEFAULT_LEVELS = (100.0, 200.0, 400.0, 800.0)


def default_stiffness_table(m: int = 2) -> tuple[np.ndarray, ...]:
    """Four diagonal stiffness matrices for an m-dimensional task space."""
    return tuple(level * np.eye(m) for level in DEFAULT_LEVELS)


def check_table(table, m: int) -> tuple[np.ndarray, ...]:
    """The four stiffness levels as float m x m matrices, each symmetric
    and PSD to 1e-8 max(1, max|K|); errors are keyed ``table`` or
    ``table[i]``."""
    if len(table) != 4:
        raise BadLevel(f"must list exactly 4 levels, got {len(table)}", "table")
    return tuple(_check_stiffness(k, m, f"table[{i}]") for i, k in enumerate(table))


def check_level(level) -> int:
    """A stiffness level: an integer from 1 to 4, keyed ``level``."""
    if not isinstance(level, (int, np.integer)) or not 1 <= level <= 4:
        raise BadLevel(f"must be an integer in 1..4, got {level!r}", "level")
    return int(level)


def check_vectors(m: int, **vectors) -> list:
    """Each named vector as a float array of shape ``(m,)`` (None passes
    through), errors keyed by its name; a ``damping`` must be >= 0."""
    out = []
    for key, v in vectors.items():
        if v is not None:
            v = np.atleast_1d(np.asarray(v, dtype=float))
            if v.shape != (m,):
                raise DimensionMismatch(f"must have shape ({m},), got {v.shape}", key)
            if key == "damping" and np.any(v < 0.0):
                raise DimensionMismatch("entries must be >= 0", key)
        out.append(v)
    return out


def _check_stiffness(k, m: int, key: str) -> np.ndarray:
    k = np.atleast_2d(np.asarray(k, dtype=float))
    if k.shape != (m, m):
        raise DimensionMismatch(f"matrix must be {m}x{m}, got {k.shape}", key)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(k))))
    try:
        ok, min_eig = psd_check(k, tol)
    except NotSymmetric as exc:
        raise ValidationError(f"matrix must be symmetric ({exc})", key) from exc
    if not ok:
        raise ValidationError(f"matrix must be PSD (min eigenvalue {min_eig:.3e})", key)
    return k


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
        m = len(np.atleast_2d(self.k_task))
        k = _check_stiffness(self.k_task, m, "k_task")
        x, fg, d = check_vectors(m, x_eq=self.x_eq, f_gravity=self.f_gravity,
                                 damping=self.damping)
        if x is None or fg is None:
            raise DimensionMismatch("x_eq and f_gravity must be given")
        if self.level is not None:
            check_level(self.level)
        object.__setattr__(self, "k_task", k)
        object.__setattr__(self, "x_eq", x)
        object.__setattr__(self, "f_gravity", fg)
        object.__setattr__(self, "damping", d)

    @property
    def m(self) -> int:
        return self.k_task.shape[0]


def control_force(k_task, f_gravity, damping, x_eq, x, xdot) -> list[float]:
    """Commanded task force F = K (x_eq - x) + F_gravity - damping * xdot.

    Plain float lists in (``k_task`` by its rows, ``damping`` None for no
    damping term), unchecked: the controller's values are checked at load.
    ``x_eq``, ``x`` and ``xdot`` hold one entry per component: floats, or
    per-step arrays, each force component then an array of every step's
    value, to the bit what one call per step gives, since each operation
    is element-wise."""
    e = list(map(sub, x_eq, x))
    f = [sum(map(mul, row, e)) + fg for row, fg in zip(k_task, f_gravity)]
    if damping is not None and xdot is not None:
        f = list(map(sub, f, map(mul, damping, xdot)))
    return f


def set_stiffness_level(
    ctrl: TaskSpaceController, level: int, table
) -> TaskSpaceController:
    """Select one of the four configured stiffness matrices (1-based)."""
    level = check_level(level)
    return replace(ctrl, k_task=check_table(table, ctrl.m)[level - 1], level=level)


def shift_equilibrium(ctrl: TaskSpaceController, delta_f) -> TaskSpaceController:
    """Move the equilibrium point so the spring force changes by delta_f.

    x_eq <- x_eq + K^-1 delta_f.  Raises SingularStiffness when the
    stiffness cannot produce the requested change (delta_f outside the
    range of a singular K).
    """
    (df,) = check_vectors(ctrl.m, delta_f=delta_f)
    if not np.any(df):
        return ctrl
    dx = svd_pinv(ctrl.k_task) @ df
    achieved = ctrl.k_task @ dx
    if np.max(np.abs(achieved - df)) > 1e-9 * max(1.0, float(np.max(np.abs(df)))):
        raise SingularStiffness(
            "k_task is singular along a commanded force direction"
        )
    return replace(ctrl, x_eq=ctrl.x_eq + dx)


def task_to_joint_torque(j_cols, f) -> list[float]:
    """Static map of a task force to joint torques: tau = J^T F.

    Plain float lists in, J given by its columns, unchecked: the loop
    takes both from the step kernel and the control law."""
    return [sum(map(mul, col, f)) for col in j_cols]


@dataclass(frozen=True)
class FrictionModel:
    """Per-joint Coulomb + viscous friction with a stiction band."""

    coulomb: np.ndarray
    viscous: np.ndarray | None = None  # None: no viscous friction
    stiction_breakaway_ratio: float = 1.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coulomb, dtype=float))
        v = np.zeros(c.shape) if self.viscous is None else np.atleast_1d(
            np.asarray(self.viscous, dtype=float))
        if c.shape != v.shape:
            raise DimensionMismatch("coulomb and viscous must have the same length")
        if np.any(c < 0.0) or np.any(v < 0.0):
            raise DimensionMismatch("friction coefficients must be >= 0")
        if not (self.stiction_breakaway_ratio >= 1.0):
            raise DimensionMismatch("stiction_breakaway_ratio must be >= 1")
        object.__setattr__(self, "coulomb", c)
        object.__setattr__(self, "viscous", v)


def friction_torque(coulomb, viscous, ratio: float, qdot, tau_applied) -> list[float]:
    """Joint friction torque.

    Moving joints (|qd| > V_EPS) see kinetic friction
    -sign(qd) coulomb - viscous qd; stuck joints resist the applied torque
    up to the breakaway level ``ratio`` * coulomb.  Plain float lists in,
    unchecked: a ``FrictionModel`` checked the coefficients at load.  A NaN
    velocity counts as stuck and a NaN applied torque passes through."""
    out = []
    for c, v, w, t in zip(coulomb, viscous, qdot, tau_applied):
        if abs(w) > V_EPS:
            out.append((-c if w > 0.0 else c) - v * w)
        else:
            b = ratio * c
            out.append(-min(max(t, -b), b))
    return out
