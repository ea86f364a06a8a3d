"""Tests for task-space impedance commands and joint friction."""

import numpy as np
import pytest

from superlimb.errors import BadLevel, DimensionMismatch, SingularStiffness, ValidationError
from superlimb.stiffness import (
    DEFAULT_LEVELS,
    FrictionModel,
    TaskSpaceController,
    control_force,
    default_stiffness_table,
    friction_torque,
    set_stiffness_level,
    shift_equilibrium,
    task_to_joint_torque,
)


def make_ctrl(k=None, x_eq=(0.1, 0.4), f_g=(0.0, 29.43), damping=None):
    if k is None:
        k = np.diag([100.0, 200.0])
    return TaskSpaceController(
        k_task=np.asarray(k, float),
        x_eq=np.asarray(x_eq, float),
        f_gravity=np.asarray(f_g, float),
        damping=None if damping is None else np.asarray(damping, float),
    )


#: one controller's values as the float lists the control law takes
K = [[100.0, 0.0], [0.0, 200.0]]
X_EQ = [0.1, 0.4]
F_G = [0.0, 29.43]


def test_control_force_affine():
    x = [0.05, 0.35]
    f = control_force(K, F_G, None, X_EQ, x, None)
    expected = np.array(K) @ (np.array(X_EQ) - x) + F_G
    np.testing.assert_array_equal(f, expected)


def test_control_force_doubles_with_error():
    zero = [0.0, 0.0]
    x1 = (np.array(X_EQ) - [0.01, 0.02]).tolist()
    x2 = (np.array(X_EQ) - [0.02, 0.04]).tolist()
    np.testing.assert_allclose(control_force(K, zero, None, X_EQ, x2, None),
                               2 * np.array(control_force(K, zero, None, X_EQ, x1, None)),
                               atol=1e-14)


def test_control_force_at_equilibrium_is_gravity_term():
    np.testing.assert_array_equal(control_force(K, F_G, None, X_EQ, X_EQ, None), F_G)


def test_control_force_damping():
    xdot = [0.1, -0.2]
    f = control_force(K, F_G, [40.0, 8.0], X_EQ, X_EQ, xdot)
    np.testing.assert_array_equal(f, F_G - np.array([40.0, 8.0]) * xdot)


def test_control_force_no_damping_ignores_velocity():
    f0 = control_force(K, F_G, None, X_EQ, X_EQ, [5.0, 5.0])
    np.testing.assert_array_equal(f0, F_G)


def test_damping_must_be_vector():
    with pytest.raises(DimensionMismatch):
        make_ctrl(damping=np.eye(2))
    with pytest.raises(DimensionMismatch):
        make_ctrl(damping=(40.0,))


def test_controller_shape_validation():
    with pytest.raises(DimensionMismatch):
        make_ctrl(x_eq=(0.1, 0.2, 0.3))
    with pytest.raises(DimensionMismatch):
        TaskSpaceController(k_task=np.ones((2, 3)), x_eq=np.zeros(2),
                            f_gravity=np.zeros(2))
    with pytest.raises(DimensionMismatch):  # only the damping is optional
        TaskSpaceController(k_task=np.eye(2), x_eq=None, f_gravity=np.zeros(2))


def test_shift_equilibrium_consistency():
    ctrl = make_ctrl()
    df = np.array([5.0, -8.0])
    shifted = shift_equilibrium(ctrl, df)
    # the new rest point must deliver the extra force at the old one
    extra = shifted.k_task @ (shifted.x_eq - ctrl.x_eq)
    np.testing.assert_allclose(extra, df, atol=1e-10)
    # original object untouched
    np.testing.assert_array_equal(ctrl.x_eq, [0.1, 0.4])


def test_shift_equilibrium_zero_is_identity():
    ctrl = make_ctrl()
    shifted = shift_equilibrium(ctrl, np.zeros(2))
    np.testing.assert_array_equal(shifted.x_eq, ctrl.x_eq)


def test_shift_equilibrium_singular():
    ctrl = make_ctrl(k=np.diag([100.0, 0.0]))
    with pytest.raises(SingularStiffness):
        shift_equilibrium(ctrl, np.array([0.0, 1.0]))


def test_shift_equilibrium_singular_but_reachable():
    # a zero row only blocks shifts that actually need that direction
    ctrl = make_ctrl(k=np.diag([100.0, 0.0]))
    shifted = shift_equilibrium(ctrl, np.array([10.0, 0.0]))
    np.testing.assert_allclose(shifted.x_eq, [0.2, 0.4], atol=1e-12)


def test_set_stiffness_level():
    table = default_stiffness_table()
    ctrl = make_ctrl()
    for lvl in range(1, 5):
        out = set_stiffness_level(ctrl, lvl, table)
        np.testing.assert_array_equal(out.k_task, table[lvl - 1])
        assert out.level == lvl


def test_set_stiffness_level_bad():
    table = default_stiffness_table()
    ctrl = make_ctrl()
    with pytest.raises(BadLevel):
        set_stiffness_level(ctrl, 0, table)
    with pytest.raises(BadLevel):
        set_stiffness_level(ctrl, 5, table)
    with pytest.raises(BadLevel):
        set_stiffness_level(ctrl, 1, table[:3])


def test_default_stiffness_table():
    table = default_stiffness_table()
    assert len(table) == 4
    for k, level in zip(table, DEFAULT_LEVELS):
        np.testing.assert_array_equal(k, level * np.eye(2))
    table3 = default_stiffness_table(3)
    assert all(k.shape == (3, 3) for k in table3)


def test_task_to_joint_torque():
    j = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.2]])
    f = np.array([3.0, -2.0])
    np.testing.assert_array_equal(task_to_joint_torque(j.T.tolist(), f.tolist()), j.T @ f)


def test_friction_model_validation():
    with pytest.raises(DimensionMismatch):
        FrictionModel(coulomb=np.array([1.0, -0.5]), viscous=np.zeros(2))
    with pytest.raises(DimensionMismatch):
        FrictionModel(coulomb=np.ones(2), viscous=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        FrictionModel(coulomb=np.ones(2), viscous=np.zeros(2),
                      stiction_breakaway_ratio=0.5)


def test_friction_torque_kinetic():
    tau = friction_torque([0.6, 0.8], [0.1, 0.0], 1.0, [0.5, -0.25], [0.0, 0.0])
    np.testing.assert_allclose(tau, [-0.6 - 0.05, 0.8], atol=1e-14)


def test_friction_torque_stuck_clamps_applied():
    tau = friction_torque([0.6, 0.8], [0.0, 0.0], 1.5, [0.0, 0.0], [0.5, -2.0])
    # below breakaway: cancel exactly; above: clamp to the breakaway level
    np.testing.assert_allclose(tau, [-0.5, 1.2], atol=1e-14)


def test_friction_torque_mixed_regimes():
    tau = friction_torque([0.6, 0.8], [0.0, 0.0], 1.0, [0.0, 1.0], [0.2, 10.0])
    np.testing.assert_allclose(tau, [-0.2, -0.8], atol=1e-14)


def test_friction_torque_opposes_power():
    rng = np.random.default_rng(7)
    for _ in range(50):
        qd = rng.standard_normal(2)
        tau = friction_torque([0.6, 0.8], [0.2, 0.1], 1.0, qd.tolist(),
                              rng.standard_normal(2).tolist())
        assert float(np.array(tau) @ qd) <= 1e-12


def test_frictionless_spring_is_conservative():
    # work of the command force around a closed loop in x vanishes
    theta = np.linspace(0.0, 2 * np.pi, 2001)
    path = np.stack([0.1 + 0.03 * np.cos(theta), 0.4 + 0.02 * np.sin(theta)], axis=1)
    forces = np.array([control_force(K, F_G, None, X_EQ, x, None) for x in path.tolist()])
    dx = np.diff(path, axis=0)
    mid = 0.5 * (forces[1:] + forces[:-1])
    work = float(np.sum(mid * dx))
    assert abs(work) < 1e-10


ASYMMETRIC = np.array([[100.0, 50.0], [0.0, 100.0]])


def test_controller_rejects_asymmetric_stiffness():
    with pytest.raises(ValidationError) as exc:
        make_ctrl(k=ASYMMETRIC)
    assert exc.value.key == "k_task"
    assert "symmetric" in exc.value.reason


@pytest.mark.parametrize("i", [0, 2])
def test_set_stiffness_level_rejects_asymmetric_entry(i):
    table = list(default_stiffness_table())
    table[i] = ASYMMETRIC
    with pytest.raises(ValidationError) as exc:
        set_stiffness_level(make_ctrl(), 1, table)
    assert exc.value.key == f"table[{i}]"

