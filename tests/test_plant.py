"""Tests for the planar rigid-body plant.

The inertia matrix and bias vector are checked against independent
oracles: the (exactly quadratic) kinetic energy, finite differences of the
potential energy, and energy conservation of free motion.
"""

import cProfile
import functools
import json
import math
import os
import pstats

import numpy as np
import pytest
from conftest import (
    SCENARIO_DIR,
    desk_arm_model,
    kernel_rows,
    reference_step_kernel,
    scenario_path,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from superlimb import plant
from superlimb.errors import BadModel, DimensionMismatch, NonFinite
from superlimb.kinematics import PlantEndpointMap
from superlimb.numerics import finite_diff_hessian, finite_diff_jacobian
from superlimb.plant import Chain, Joint, Kinematics, PlantModel, RunKinematics
from superlimb.scenario import load_scenario


def bundled_plant_scenarios() -> list[str]:
    names = []
    for name in sorted(os.listdir(SCENARIO_DIR)):
        with open(scenario_path(name)) as fh:
            if "plant" in json.load(fh):
                names.append(name)
    return names


def mixed_arm_model() -> PlantModel:
    """The desk plant's chain names around a prismatic joint carried by a
    revolute one: a slide at an angle to its link, with rotational and
    rotor inertia on both joints and the chain turned off the axes.  Its
    CoM and tip accelerations carry the 2 qd phid Coriolis term of a slide
    under rotation, which no bundled plant reaches."""
    return PlantModel(chains=(
        Chain(name="arm", heading=0.4, base=(0.1, -0.2), joints=(
            Joint(kind="revolute", mass=1.2, length=0.3, com=0.12,
                  inertia=0.02, rotor=0.05, q0=0.3),
            Joint(kind="prismatic", mass=0.8, length=0.1, com=0.05,
                  inertia=0.01, rotor=0.03, axis=0.6, q0=0.2),
        )),
        Chain(name="trunk", role="human", heading=1.2, joints=(
            Joint(kind="revolute", mass=5.0, length=0.4, com=0.2, inertia=0.1),
        )),
    ))


def plant_named(name: str) -> PlantModel:
    if name == "desk":
        return desk_arm_model()
    if name == "mixed":
        return mixed_arm_model()
    return load_scenario(scenario_path(name)).model


ORACLE_PLANTS = ["desk", "mixed"] + bundled_plant_scenarios()


def test_joint_validation():
    with pytest.raises(BadModel):
        Joint(kind="spherical", mass=1.0, length=0.2, com=0.1)
    with pytest.raises(BadModel):
        Joint(kind="revolute", mass=-1.0, length=0.2, com=0.1)
    with pytest.raises(BadModel):
        Joint(kind="revolute", mass=1.0, length=0.0, com=0.0)
    with pytest.raises(BadModel):
        Joint(kind="revolute", mass=1.0, length=0.2, com=0.1, inertia=-0.1)


def test_model_requires_srl_before_human():
    j = Joint(kind="prismatic", mass=1.0, length=0.0, com=0.0)
    human = Chain(name="h", joints=(j,), role="human")
    srl = Chain(name="s", joints=(j,), role="srl")
    with pytest.raises(BadModel):
        PlantModel(chains=(human, srl))
    model = PlantModel(chains=(srl, human))
    assert list(model.srl_indices) == [0]
    assert list(model.human_indices) == [1]


def test_duplicate_chain_names_rejected():
    j = Joint(kind="prismatic", mass=1.0, length=0.0, com=0.0)
    with pytest.raises(BadModel):
        PlantModel(chains=(Chain(name="a", joints=(j,)), Chain(name="a", joints=(j,))))


@pytest.mark.parametrize("field, frame", [
    ("heading", {"heading": math.inf}),
    ("base", {"base": (math.nan, 0.0)}),
])
def test_chain_frame_must_be_finite(field, frame):
    # the frame becomes float literals of the generated step kernel
    rod = Joint(kind="revolute", mass=1.0, length=0.2)
    with pytest.raises(BadModel, match="must be finite in chain 'arm'") as err:
        Chain(name="arm", joints=(rod,), **frame)
    assert err.value.key == field


def test_q0_and_slices(desk_model):
    assert desk_model.n_dof == 4
    np.testing.assert_allclose(desk_model.q0, [0.3, -0.5, 0.4, 0.0])
    assert desk_model.chain_slice("arm") == slice(0, 3)
    assert desk_model.chain_slice("trunk") == slice(3, 4)
    with pytest.raises(BadModel):
        desk_model.chain_slice("nope")


def test_state_shape_validation(desk_model):
    with pytest.raises(DimensionMismatch):
        desk_model.state(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        desk_model.state(np.zeros(4), np.zeros(5))


# --- mass matrix ------------------------------------------------------------


def test_mass_matrix_spd(desk_model, rng):
    for _ in range(5):
        q = rng.uniform(-1.0, 1.0, 4)
        a = desk_model.state(q).mass_matrix()
        np.testing.assert_array_equal(a, a.T)
        assert np.linalg.eigvalsh(a)[0] > 0.0


def test_mass_matrix_matches_kinetic_energy_hessian(desk_model, rng):
    # T = 1/2 qd' A qd is exactly quadratic in qd, so the central-difference
    # Hessian in qd recovers A up to second-difference roundoff (~eps*|T|/h^2)
    q = rng.uniform(-1.0, 1.0, 4)
    qd0 = rng.standard_normal(4)
    a = desk_model.state(q).mass_matrix()

    def t_of_qd(qd):
        return desk_model.state(q, qd).kinetic_energy()

    a_fd = finite_diff_hessian(t_of_qd, qd0)
    assert np.max(np.abs(a - a_fd)) <= 1e-6 * (1.0 + np.max(np.abs(a)))


@pytest.mark.parametrize("name", ORACLE_PLANTS)
def test_mass_matrix_quadratic_form_is_kinetic_energy(name, rng):
    # exact oracle: the link-wise kinetic energy never touches the stacked
    # Jacobians the inertia matrix is assembled from
    model = plant_named(name)
    n = model.n_dof
    for _ in range(10):
        q = model.q0 + rng.uniform(-1.0, 1.0, n)
        qd = rng.standard_normal(n)
        st = model.state(q, qd)
        t = st.kinetic_energy()
        assert 0.5 * qd @ st.mass_matrix() @ qd == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("name", ORACLE_PLANTS)
def test_dynamics_results_are_not_aliased(name, rng):
    model = plant_named(name)
    n = model.n_dof
    st = model.state(model.q0 + rng.uniform(-1.0, 1.0, n), rng.standard_normal(n))
    a, g, h = (arr.copy() for arr in (st.mass_matrix(), st.gravity_vector(), st.bias()))
    for arr in (st.mass_matrix(), st.gravity_vector(), st.bias()):
        arr += 1.0
    np.testing.assert_array_equal(st.mass_matrix(), a)
    np.testing.assert_array_equal(st.gravity_vector(), g)
    np.testing.assert_array_equal(st.bias(), h)


def check_gravity_vector_matches_potential_gradient(model, rng):
    q = rng.uniform(-1.0, 1.0, model.n_dof)
    g = model.state(q).gravity_vector()

    def v(qv):
        return np.atleast_1d(model.state(qv).potential_energy())

    g_fd = finite_diff_jacobian(v, q).ravel()
    np.testing.assert_allclose(g, g_fd, atol=1e-6)


def test_gravity_vector_matches_potential_gradient(desk_model, rng):
    check_gravity_vector_matches_potential_gradient(desk_model, rng)


def test_bias_at_rest_equals_gravity(desk_model, rng):
    q = rng.uniform(-1.0, 1.0, 4)
    st = desk_model.state(q, np.zeros(4))
    np.testing.assert_allclose(st.bias(), st.gravity_vector(), atol=1e-12)


def check_bias_velocity_terms_antisymmetric_in_energy(model, rng):
    # Coriolis forces do no work: qd' (h - g) = d/dt(T) at fixed qd ... the
    # cheap version of that check: qd' C(q,qd) qd = qd' (h - g) must equal
    # the rate of change of T along frozen velocities, which for this
    # parametrization reduces to dT/dq . qd
    q = rng.uniform(-0.8, 0.8, model.n_dof)
    qd = rng.standard_normal(model.n_dof)
    st = model.state(q, qd)
    coriolis_power = float(qd @ (st.bias() - st.gravity_vector()))

    def t_of_q(qv):
        return np.atleast_1d(model.state(qv, qd).kinetic_energy())

    dt_dq = finite_diff_jacobian(t_of_q, q).ravel()
    assert coriolis_power == pytest.approx(float(dt_dq @ qd), abs=1e-6)


def test_bias_velocity_terms_antisymmetric_in_energy(desk_model, rng):
    check_bias_velocity_terms_antisymmetric_in_energy(desk_model, rng)


# --- point kinematics ---------------------------------------------------------


POINTS = [("arm", None, "tip"), ("arm", 1, "tip"), ("arm", 0, "com"), ("trunk", None, "tip")]


def check_point_jacobian_matches_finite_difference(model, rng, chain, joint, at):
    q = rng.uniform(-1.0, 1.0, model.n_dof)
    pk = model.state(q).point(chain, joint=joint, at=at)

    def pos(qv):
        return model.state(qv).point(chain, joint=joint, at=at).pos

    jac_fd = finite_diff_jacobian(pos, q)
    np.testing.assert_allclose(pk.jac, jac_fd, atol=1e-7)


@pytest.mark.parametrize("chain,joint,at", POINTS)
def test_point_jacobian_matches_finite_difference(desk_model, rng, chain, joint, at):
    check_point_jacobian_matches_finite_difference(desk_model, rng, chain, joint, at)


@pytest.mark.parametrize("name", ORACLE_PLANTS)
def test_kernel_tip_jacobians_match_finite_difference(name, rng):
    # every link's tip_jac, prismatic trunks and presses included, against
    # central differences of the kernel's own tip positions
    model = plant_named(name)
    n = model.n_dof
    q = model.q0 + rng.uniform(-1.0, 1.0, n)
    tip_jac = model.state(q).kin.tip_jac
    for link in range(n):
        jac_fd = finite_diff_jacobian(lambda qv: model.state(qv).kin.tip[link], q)
        np.testing.assert_allclose(tip_jac[link], jac_fd, atol=1e-7)


def check_point_velocity_consistent_with_jacobian(model, rng):
    q = rng.uniform(-1.0, 1.0, model.n_dof)
    qd = rng.standard_normal(model.n_dof)
    pk = model.state(q, qd).point("arm")
    np.testing.assert_allclose(pk.vel, pk.jac @ qd, atol=1e-12)


def test_point_velocity_consistent_with_jacobian(desk_model, rng):
    check_point_velocity_consistent_with_jacobian(desk_model, rng)


def check_point_acc_bias_matches_jacobian_rate(model, rng):
    # acceleration with qdd = 0 is (dJ/dt) qd; compare against finite
    # differences of J along the flow
    q = rng.uniform(-0.8, 0.8, model.n_dof)
    qd = rng.standard_normal(model.n_dof)
    st = model.state(q, qd)
    pk = st.point("arm")
    eps = 1e-6
    j_plus = model.state(q + eps * qd).point("arm").jac
    j_minus = model.state(q - eps * qd).point("arm").jac
    jdot_qd = ((j_plus - j_minus) / (2.0 * eps)) @ qd
    np.testing.assert_allclose(pk.acc_bias, jdot_qd, atol=1e-6)


def test_point_acc_bias_matches_jacobian_rate(desk_model, rng):
    check_point_acc_bias_matches_jacobian_rate(desk_model, rng)


@pytest.mark.parametrize("check", [
    pytest.param(check_gravity_vector_matches_potential_gradient, id="gravity"),
    pytest.param(check_bias_velocity_terms_antisymmetric_in_energy, id="bias-power"),
    pytest.param(check_point_velocity_consistent_with_jacobian, id="velocity"),
    pytest.param(check_point_acc_bias_matches_jacobian_rate, id="acc-bias"),
    *(pytest.param(
        functools.partial(check_point_jacobian_matches_finite_difference, chain=c, joint=j, at=a),
        id=f"jacobian-{c}-{j}-{a}",
    ) for c, j, a in POINTS),
])
def test_mixed_plant_oracles(check, rng):
    # every desk-plant oracle, on the plant with a slide under rotation
    for _ in range(5):
        check(mixed_arm_model(), rng)


def test_prismatic_axis_direction():
    # prismatic joint sliding at 30 degrees from a rotated chain frame
    model = PlantModel(chains=(Chain(
        name="slide", heading=0.5,
        joints=(Joint(kind="prismatic", mass=1.0, length=0.0, com=0.0,
                      axis=math.pi / 6.0),),
    ),))
    pk = model.state(np.array([0.7])).point("slide")
    ang = 0.5 + math.pi / 6.0
    np.testing.assert_allclose(pk.pos, [0.7 * math.cos(ang), 0.7 * math.sin(ang)])
    np.testing.assert_allclose(pk.jac.ravel(), [math.cos(ang), math.sin(ang)])


def test_unknown_point_requests(desk_model):
    st = desk_model.state(desk_model.q0)
    with pytest.raises(BadModel):
        st.point("arm", joint=7)
    with pytest.raises(BadModel):
        st.point("arm", at="elbow")


# --- energies -----------------------------------------------------------------


def test_energy_zero_at_rest(desk_model):
    st = desk_model.state(desk_model.q0, np.zeros(4))
    assert st.kinetic_energy() == 0.0
    assert np.isfinite(st.potential_energy())


def test_rotor_inertia_adds_diagonal():
    base = Joint(kind="revolute", mass=1.0, length=0.3, com=0.15, inertia=0.01)
    with_rotor = Joint(kind="revolute", mass=1.0, length=0.3, com=0.15,
                       inertia=0.01, rotor=0.25)
    m0 = PlantModel(chains=(Chain(name="c", joints=(base,)),))
    m1 = PlantModel(chains=(Chain(name="c", joints=(with_rotor,)),))
    q = np.array([0.4])
    a0 = m0.state(q).mass_matrix()
    a1 = m1.state(q).mass_matrix()
    assert a1[0, 0] - a0[0, 0] == pytest.approx(0.25)


def test_non_finite_state_is_rejected():
    rod = PlantModel(chains=(Chain(name="rod", joints=(
        Joint(kind="revolute", mass=1.0, length=0.3, com=0.15),)),))
    with pytest.raises(NonFinite, match="q "):
        rod.state([math.inf])
    with pytest.raises(NonFinite, match="qd "):
        rod.state([0.0], [math.nan])
    with pytest.raises(NonFinite):
        PlantEndpointMap(rod, "rod")([math.inf])


def kernel_bits(value, lists: list):
    """A step kernel's result with every float as ``float.hex``, so that
    -0.0 and 0.0 differ, and every container as its type and items; the id
    of every list goes to ``lists``."""
    if type(value) is float:
        return value.hex()
    if type(value) is list:
        lists.append(id(value))
    return type(value).__name__, [kernel_bits(v, lists) for v in value]


@st.composite
def plants(draw) -> PlantModel:
    """1-3 chains of 1-5 mixed revolute/prismatic joints, limb chains first,
    with zero and nonzero inertias and rotors and frames off the axes."""
    extra = st.sampled_from([0.0]) | st.floats(1e-3, 0.5)
    n_chains = draw(st.integers(1, 3))
    n_srl = draw(st.integers(0, n_chains))
    chains = []
    for k in range(n_chains):
        joints = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["revolute", "prismatic"]))
            joints.append(Joint(
                kind=kind, mass=draw(st.floats(0.1, 10.0)),
                length=draw(st.floats(0.05 if kind == "revolute" else 0.0, 1.0)),
                com=draw(st.floats(-0.5, 1.0)), inertia=draw(extra), rotor=draw(extra),
                axis=draw(st.floats(-3.2, 3.2)),
            ))
        chains.append(Chain(
            name=f"c{k}", role="srl" if k < n_srl else "human", joints=tuple(joints),
            base=(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))),
            heading=draw(st.floats(-3.2, 3.2)),
        ))
    return PlantModel(chains=tuple(chains), gravity=draw(st.floats(0.0, 20.0)))


COORDS = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=150, deadline=None)
@given(plants(), st.data())
def test_generated_kernel_matches_reference_loop(model, data):
    # all 13 Kinematics fields to the bit, and fresh lists on every call
    n = model.n_dof
    q, qd = (data.draw(st.lists(COORDS, min_size=n, max_size=n)) for _ in range(2))
    lists = []
    first, second = model._full_kernel(q, qd), model._full_kernel(q, qd)
    bits = kernel_bits(first, lists)
    assert bits == kernel_bits(reference_step_kernel(model)(q, qd), [])
    assert kernel_bits(second, lists) == bits
    assert len(set(lists)) == len(lists)


def test_thirty_dof_chain_kernel_matches_reference_loop(rng):
    # each sum grows one statement per term: a long chain compiles, however
    # many terms A's first element collects
    joints = tuple(
        Joint(kind="prismatic" if k % 5 == 4 else "revolute", mass=1.0 + 0.1 * k,
              length=0.1, inertia=0.01, rotor=0.02 * (k % 2), axis=0.3)
        for k in range(30)
    )
    model = PlantModel(chains=(Chain(name="long", joints=joints, base=(0.1, -0.2),
                                     heading=0.5),))
    reference = reference_step_kernel(model)
    for _ in range(5):
        q, qd = rng.uniform(-1.0, 1.0, 30).tolist(), rng.standard_normal(30).tolist()
        assert kernel_bits(model._full_kernel(q, qd), []) == kernel_bits(reference(q, qd), [])
        assert run_bits(model._kernel(q, qd), []) == run_bits(reference(q, qd), [])


def run_bits(kin, lists: list):
    """``kernel_bits`` of the ``RunKinematics`` fields of a step kernel's result."""
    return [kernel_bits(getattr(kin, name), lists) for name in RunKinematics._fields]


@settings(max_examples=150, deadline=None)
@given(plants(), st.data())
def test_run_kernel_matches_reference_loop(model, data):
    # the run kernel's 7 fields to the bit, and fresh lists on every call
    n = model.n_dof
    q, qd = (data.draw(st.lists(COORDS, min_size=n, max_size=n)) for _ in range(2))
    lists = []
    first, second = model._kernel(q, qd), model._kernel(q, qd)
    assert type(first) is RunKinematics
    bits = run_bits(first, lists)
    assert bits == run_bits(reference_step_kernel(model)(q, qd), [])
    assert run_bits(second, lists) == bits
    assert len(set(lists)) == len(lists)


def batch_entries(value):
    """Every entry of a batch kernel's result, in order."""
    if isinstance(value, (float, np.ndarray)):
        return [value]
    return [e for v in value for e in batch_entries(v)]


@settings(max_examples=150, deadline=None)
@given(plants(), st.data())
def test_batch_kernel_matches_run_kernel(model, data):
    # every field of every row of a block of states is, to the bit, what the
    # run kernel gives for that row's state; a constant entry comes back as
    # one float, every other as an array of one float64 per step
    n, steps = model.n_dof, data.draw(st.integers(1, 6))
    block = st.lists(st.lists(COORDS, min_size=n, max_size=n), min_size=steps, max_size=steps)
    q, qd = data.draw(block), data.draw(block)
    kin = model._batch_kernel(np.array(q).T.copy(), np.array(qd).T.copy())
    assert type(kin) is RunKinematics
    for entry in batch_entries(kin):
        assert type(entry) is float or (entry.dtype == np.float64 and entry.shape == (steps,))
    for row, q_i, qd_i in zip(kernel_rows(kin, steps), q, qd):
        assert run_bits(row, []) == run_bits(model._kernel(q_i, qd_i), [])


def test_batch_kernel_is_built_once_and_named_after_its_chains(desk_model):
    # built on first use, never at load, and compiled from the run kernel's
    # lines under its own name
    assert "_batch_kernel" not in vars(desk_model)
    kernel = desk_model._batch_kernel
    assert desk_model._batch_kernel is kernel
    assert kernel.__code__.co_filename == "<batch kernel: arm, trunk>"
    assert kernel.__code__.co_code == desk_model._kernel.__code__.co_code


def kernel_sources(model: PlantModel) -> dict:
    """The lines of ``model``'s run and full kernels, generated anew, by the
    namedtuple each returns."""
    return {returns: plant._step_source(*model._topology, returns).lines
            for returns in (RunKinematics, Kinematics)}


@pytest.mark.parametrize("name", bundled_plant_scenarios())
def test_run_kernel_lines_are_full_kernel_lines(name):
    # the liveness pass only drops lines: the run kernel's statements are
    # the full kernel's, text and order, so they compute the same bits; the
    # model keeps its run kernel's lines as they are generated
    model = load_scenario(os.path.join(SCENARIO_DIR, name)).model
    bodies = kernel_sources(model)
    assert model._kernel_source.lines == bodies[RunKinematics]
    run, full = bodies[RunKinematics], bodies[Kinematics]
    assert run[-1].startswith("return RunKinematics(")
    assert full[-1].startswith("return Kinematics(")
    rest = iter(full[:-1])
    assert all(line in rest for line in run[:-1])  # an ordered subset
    assert len(run) < len(full)


def test_kernel_is_named_after_its_chains(desk_model):
    # profiles and tracebacks attribute the generated code to the kernel
    name = "<step kernel: arm, trunk>"
    profile = cProfile.Profile()
    profile.runcall(desk_model._kernel, [0.0] * 4, [0.0] * 4)
    assert (name, 1, "kernel") in pstats.Stats(profile).stats
    full = desk_model._full_kernel.__code__.co_filename
    assert full == "<step kernel: arm, trunk (all fields)>"
    with pytest.raises(ValueError) as err:
        desk_model._kernel([0.0], [0.0])
    tb = err.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == name
