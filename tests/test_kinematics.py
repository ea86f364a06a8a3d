"""Tests for the coupled human-limb rate map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlimb.errors import DimensionMismatch, Singular, ValidationError
from superlimb.kinematics import (
    CoupledJacobian,
    PlantEndpointMap,
    desired_joint_rates,
    singularity_guard,
)
from superlimb.numerics import finite_diff_jacobian, svd_pinv


def test_block_offdiagonals_exactly_zero(rng):
    j = CoupledJacobian(j_hat=rng.standard_normal((2, 3)), k_couple=np.eye(2) * 1.5)
    b = j.block
    assert b.shape == (4, 5)
    np.testing.assert_array_equal(b[:2, 3:], np.zeros((2, 2)))
    np.testing.assert_array_equal(b[2:, :3], np.zeros((2, 3)))


# --- rate solve ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_square(seed):
    rng = np.random.default_rng(seed)
    j_hat = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    k = np.diag(rng.uniform(0.5, 2.0, 2))
    j = CoupledJacobian(j_hat=j_hat, k_couple=k)
    qdot_h = rng.standard_normal(4)
    rates = desired_joint_rates(j, qdot_h)
    assert np.max(np.abs(j.block @ rates - qdot_h)) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_round_trip_wide_minimum_norm(seed):
    rng = np.random.default_rng(100 + seed)
    j_hat = rng.standard_normal((2, 4))  # two spare limb joints
    k = np.array([[1.3]])
    j = CoupledJacobian(j_hat=j_hat, k_couple=k)
    qdot_h = rng.standard_normal(3)
    rates = desired_joint_rates(j, qdot_h)
    assert np.max(np.abs(j.block @ rates - qdot_h)) <= 1e-9
    # block-diagonal inverse coincides with the pseudo-inverse of the block
    expected = svd_pinv(j.block) @ qdot_h
    np.testing.assert_allclose(rates, expected, atol=1e-9)


def test_coupling_rates_exact(rng):
    j = CoupledJacobian(j_hat=np.eye(2), k_couple=np.array([[2.0]]))
    qdot_h = np.array([0.1, -0.2, 0.5])
    rates = desired_joint_rates(j, qdot_h)
    # h2 rate = K * s2 rate, exactly
    assert 2.0 * rates[2] == qdot_h[2]


def test_fewer_limb_than_human_joints_rejected():
    j = CoupledJacobian(j_hat=np.ones((2, 1)), k_couple=np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        desired_joint_rates(j, np.zeros(2))


def test_singularity_guard():
    j = CoupledJacobian(j_hat=np.array([[1.0, 0.0], [0.0, 1e-9]]),
                        k_couple=np.zeros((0, 0)))
    with pytest.raises(Singular) as ei:
        singularity_guard(j, cond_max=1e6)
    assert ei.value.cond > 1e6
    ok = CoupledJacobian(j_hat=np.eye(2), k_couple=np.zeros((0, 0)))
    assert singularity_guard(ok) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 99999))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    n_h1 = int(rng.integers(1, 4))
    n_s1 = n_h1 + int(rng.integers(0, 3))
    j_hat = rng.standard_normal((n_h1, n_s1))
    if np.linalg.cond(np.atleast_2d(j_hat @ j_hat.T)) > 1e5:
        return  # skip near-singular draws
    j = CoupledJacobian(j_hat=j_hat, k_couple=np.array([[1.7]]))
    qdot_h = rng.standard_normal(n_h1 + 1)
    rates = desired_joint_rates(j, qdot_h)
    assert np.max(np.abs(j.block @ rates - qdot_h)) <= 1e-8


# --- the closed-chain block from a plant-backed map --------------------------


def test_plant_endpoint_map_jacobian_matches_finite_difference(desk_model, rng):
    fk = PlantEndpointMap(desk_model, "arm", components=("x", "z"))
    for _ in range(5):
        q_chain = desk_model.q0[:3] + rng.uniform(-0.3, 0.3, 3)
        jac = fk.jacobian(q_chain)
        jac_fd = finite_diff_jacobian(fk, q_chain)
        assert np.max(np.abs(jac - jac_fd)) <= 1e-6


def test_plant_endpoint_map_unknown_component(desk_model):
    with pytest.raises(ValidationError):
        PlantEndpointMap(desk_model, "arm", components=("x", "y"))


def test_coupled_jacobian_from_plant_endpoint_map(desk_model):
    fk = PlantEndpointMap(desk_model, "arm", components=("x", "z"))
    j = CoupledJacobian(j_hat=fk.jacobian(desk_model.q0[:3]), k_couple=np.zeros((0, 0)))
    assert j.j_hat.shape == (2, 3)
    # wide case: 3 limb joints driving 2 endpoint coordinates
    rates = desired_joint_rates(j, np.array([0.01, -0.02]))
    assert np.max(np.abs(j.j_hat @ rates - [0.01, -0.02])) <= 1e-9
