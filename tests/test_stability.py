"""Tests for the quasi-static posture stability certification."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from conftest import (
    reference_fd_hessian,
    reference_fd_jacobian,
    reference_potential,
    reference_stiffness_matrix_kp,
)
from hypothesis import given, settings
from hypothesis import strategies as hs
from superlimb import stability
from superlimb.errors import (
    DimensionMismatch,
    IkFailure,
    NonFinite,
    NotSymmetric,
    RankDeficient,
    Unachievable,
    ValidationError,
)
from superlimb.scenario import build_posture
from superlimb.numerics import finite_diff_hessian, hessian_stencil
from superlimb.stability import (
    CROSSCHECK_RTOL,
    GRAVITY,
    POSTURES,
    RESIDUAL_TOL,
    DiagnosticMismatch,
    StabilityReport,
    SupportPosture,
    _base_stiffness,
    hessian_ez,
    hessian_qi,
    named_posture,
    potential,
    stabilizing_servo_stiffness,
    stiffness_matrix_kp,
)

MG = 4.0 * GRAVITY  # default posture mass
CLOSURES = ("ik_map", "z_of_p", "ik_jac", "z_hess", "ik_hess")


def flat(n):
    """Derivative closures of an n-D posture whose ik map is linear and
    whose CoM height has zero curvature."""
    return {"ik_jac": lambda p: np.eye(n), "z_hess": lambda p: np.zeros((n, n)),
            "ik_hess": lambda p: np.zeros((n, n, n))}


def slider_posture(mass=2.0, tau=None, k=50.0):
    """1-D vertical slider: joint coordinate == CoM height."""
    tau_bar = np.array([mass * GRAVITY if tau is None else tau])
    return SupportPosture(
        p_bar=np.zeros(1),
        q_bar=np.zeros(1),
        tau_bar=tau_bar,
        k_q=np.array([[k]]),
        mass=mass,
        ik_map=lambda p: np.asarray(p, float).copy(),
        z_of_p=lambda p: float(p[0]),
        **flat(1),
    )


# --- residual -------------------------------------------------------------------


def test_residual_balanced_slider_is_zero():
    rep = stiffness_matrix_kp(slider_posture())
    assert rep.equilibrium_residual < 1e-9


def test_residual_unpowered_slider_shows_weight():
    # with no servo torque the whole weight, 2 kg * 9.81 m/s^2, is left over
    weight = r"posture is not an equilibrium \(residual 1\.962e\+01 N"
    with pytest.raises(ValidationError, match=weight):
        stiffness_matrix_kp(slider_posture(tau=0.0))


# --- posture container ----------------------------------------------------------


def closures(posture):
    return {name: getattr(posture, name) for name in CLOSURES}


def test_posture_validation():
    good = closures(slider_posture())
    with pytest.raises(DimensionMismatch):
        SupportPosture(p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(2),
                       k_q=np.eye(1), mass=1.0, **good)
    with pytest.raises(DimensionMismatch):
        SupportPosture(p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(1),
                       k_q=np.eye(2), mass=1.0, **good)
    with pytest.raises(NotSymmetric):
        SupportPosture(p_bar=np.zeros(2), q_bar=np.zeros(2), tau_bar=np.zeros(2),
                       k_q=np.array([[1.0, 0.5], [0.0, 1.0]]), mass=1.0, **good)
    with pytest.raises(ValidationError):
        SupportPosture(p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(1),
                       k_q=-np.eye(1), mass=1.0, **good)
    for mass in (-1.0, 1e308):  # the weight m g must be finite too
        with pytest.raises(ValidationError) as exc:
            slider_posture(mass=mass)
        assert exc.value.key == "mass"


def test_empty_pose_is_rejected_at_build():
    # a pose with no coordinates has no stiffness matrix to certify
    with pytest.raises(ValidationError) as exc:
        SupportPosture(p_bar=np.zeros(0), q_bar=np.zeros(1), tau_bar=np.zeros(1),
                       k_q=np.eye(1), mass=1.0, ik_map=lambda p: np.zeros(1),
                       z_of_p=lambda p: 0.0, **flat(0))
    assert exc.value.key == "p_bar"


@pytest.mark.parametrize("name", ["p_bar", "q_bar", "tau_bar"])
def test_posture_vector_that_is_not_1d_is_rejected_by_name(name):
    fields = dict(p_bar=np.zeros(2), q_bar=np.zeros(2), tau_bar=np.zeros(2), k_q=np.eye(2),
                  mass=1.0, ik_map=lambda p: np.zeros(2), z_of_p=lambda p: 0.0, **flat(2))
    fields[name] = np.zeros((1, 2))
    with pytest.raises(DimensionMismatch) as exc:
        SupportPosture(**fields)
    assert exc.value.key == name
    assert str(exc.value) == f"{name}: must be 1-D, got shape (1, 2)"


@pytest.mark.parametrize("name", ["ik_jac", "z_hess", "ik_hess"])
def test_posture_without_a_derivative_closure_is_rejected(name):
    given = closures(slider_posture())
    fields = dict(p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(1),
                  k_q=np.eye(1), mass=1.0)
    del given[name]
    with pytest.raises(TypeError, match=name):
        SupportPosture(**fields, **given)
    with pytest.raises(ValidationError, match=name):
        SupportPosture(**fields, **given, **{name: None})


def test_report_validation():
    with pytest.raises(NotSymmetric):
        StabilityReport(k_p=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        StabilityReport(k_p=np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_report_derives_its_verdict_from_kp():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6):
        a = rng.standard_normal((n, n))
        k_p = a + a.T
        rep = StabilityReport(k_p)
        eigs = np.linalg.eigvalsh(k_p)
        assert rep.eigenvalues.tobytes() == eigs.tobytes()
        assert rep.margin == eigs[0]
        assert rep.is_stable == bool(eigs[0] >= -1e-8 * np.max(np.abs(k_p)))
    assert StabilityReport(np.eye(2)).is_stable
    assert not StabilityReport(-np.eye(2)).is_stable


def test_potential_shape_check():
    with pytest.raises(DimensionMismatch):
        potential(slider_posture(), np.zeros(3))


def test_hessian_qi_index_check():
    with pytest.raises(DimensionMismatch):
        hessian_qi(slider_posture(), np.zeros(1), 1)


def test_ik_failures_are_reported():
    bad = SupportPosture(
        p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(1),
        k_q=np.eye(1), mass=1.0,
        ik_map=lambda p: (_ for _ in ()).throw(ValueError("boom")),
        z_of_p=lambda p: 0.0, **flat(1),
    )
    with pytest.raises(IkFailure):
        potential(bad, np.zeros(1))
    wrong_shape = SupportPosture(
        p_bar=np.zeros(1), q_bar=np.zeros(1), tau_bar=np.zeros(1),
        k_q=np.eye(1), mass=1.0,
        ik_map=lambda p: np.zeros(3), z_of_p=lambda p: 0.0, **flat(1),
    )
    with pytest.raises(IkFailure):
        potential(wrong_shape, np.zeros(1))


# --- named postures: analytic eigenvalues --------------------------------------


def named(name, **kw):
    return build_posture({"posture": name, **kw})


def test_posture_registry():
    assert sorted(POSTURES) == [
        "column", "cradle", "hanging_panel", "inverted_panel", "toggle_mount",
    ]


def test_column_margin():
    rep = stiffness_matrix_kp(named("column"))
    assert rep.is_stable
    assert rep.margin == pytest.approx(80.0, rel=1e-9)
    np.testing.assert_allclose(
        rep.eigenvalues, [80.0, 80.0, 80.0, 400.0, 400.0, 400.0], rtol=1e-9)
    assert not rep.diagnostic_mismatch


def test_hanging_panel_margin():
    rep = stiffness_matrix_kp(named("hanging_panel"))
    assert rep.is_stable
    assert rep.margin == pytest.approx(1.0, rel=1e-6)
    tilt = MG * 0.3 + 1.0
    np.testing.assert_allclose(
        rep.eigenvalues, [1.0, tilt, tilt, 400.0, 400.0, 400.0], rtol=1e-6)
    assert not rep.diagnostic_mismatch


def test_inverted_panel_margin():
    rep = stiffness_matrix_kp(named("inverted_panel"))
    assert not rep.is_stable
    assert rep.margin == pytest.approx(-MG * 0.3, rel=1e-6)
    assert not rep.diagnostic_mismatch


def test_cradle_margin():
    rep = stiffness_matrix_kp(named("cradle"))
    assert rep.is_stable
    assert rep.margin == pytest.approx(4.0, rel=1e-6)
    horiz = MG * (2.0 / 0.3) + 4.0
    np.testing.assert_allclose(
        rep.eigenvalues, [4.0] * 4 + [horiz] * 2, rtol=1e-6)


def test_toggle_mount_margin():
    rep = stiffness_matrix_kp(named("toggle_mount"))
    assert not rep.is_stable
    assert rep.margin == pytest.approx(2.0 - MG, rel=1e-6)
    assert not rep.diagnostic_mismatch


def test_larger_mass_destabilizes_toggle_further():
    m1 = stiffness_matrix_kp(named("toggle_mount", mass=4.0)).margin
    m2 = stiffness_matrix_kp(named("toggle_mount", mass=8.0)).margin
    assert m2 < m1 < 0.0


def test_fd_hessian_matches_assembly_on_named_postures():
    for name in POSTURES:
        rep = stiffness_matrix_kp(named(name))
        # quadratic potential probe: second directional differences of U
        # must agree in sign with the assembled curvature
        posture = named(name)
        h = 1e-4
        for v in np.linalg.eigh(rep.k_p)[1].T:
            u0 = potential(posture, posture.p_bar)
            up = potential(posture, posture.p_bar + h * v)
            um = potential(posture, posture.p_bar - h * v)
            curefd = (up - 2 * u0 + um) / h**2
            cura = float(v @ rep.k_p @ v)
            assert curefd == pytest.approx(cura, abs=1e-4 * (1 + abs(cura)))


def test_non_equilibrium_is_rejected():
    with pytest.raises(ValidationError, match="equilibrium"):
        stiffness_matrix_kp(slider_posture(tau=0.0))


@pytest.mark.parametrize("name, stable", [("hanging_panel", True), ("inverted_panel", False)])
@pytest.mark.parametrize("key, value", [
    ("mass", 1e12), ("mass", 1e200), ("r", 1e6), ("r", 1e10), ("r", 1e200),
])
def test_heavy_or_far_offset_posture_certifies(name, stable, key, value):
    # both are exact equilibria; the residual of the central-difference
    # gravity gradient grows with the weight and with |z_c|, and so does
    # the bound it is held to
    rep = stiffness_matrix_kp(named_posture(name, **{key: value}))
    assert rep.is_stable == stable
    assert rep.crosscheck_rel_err <= 1e-7
    assert not rep.diagnostic_mismatch


def test_mismatch_between_assembly_and_potential_is_flagged():
    # an inconsistent analytic ik Jacobian makes the assembled matrix
    # disagree with the actual potential's curvature
    posture = SupportPosture(
        p_bar=np.zeros(2), q_bar=np.zeros(2), tau_bar=np.zeros(2),
        k_q=np.eye(2), mass=1.0,
        ik_map=lambda p: np.asarray(p, float).copy(),
        z_of_p=lambda p: 0.0,
        **dict(flat(2), ik_jac=lambda p: 2.0 * np.eye(2)),
    )
    with pytest.warns(DiagnosticMismatch):
        rep = stiffness_matrix_kp(posture)
    assert rep.diagnostic_mismatch


def test_hessian_ez_hanging():
    posture = named("hanging_panel", r=0.3)
    ez = hessian_ez(posture, posture.p_bar)
    expected = np.zeros((6, 6))
    expected[3, 3] = expected[4, 4] = 0.3
    np.testing.assert_allclose(ez, expected, atol=1e-6)


# --- servo rescue ---------------------------------------------------------------


def test_rescue_stable_posture_needs_nothing():
    assert stabilizing_servo_stiffness(named("column")) == 0.0


def test_rescue_inverted_panel():
    alpha = stabilizing_servo_stiffness(named("inverted_panel"), margin=1.0)
    expected = MG * 0.3 + 1.0
    assert alpha == pytest.approx(expected, abs=2e-6)
    assert alpha >= expected - 1e-7  # returned value must itself certify


def test_rescue_monotone_in_margin():
    a1 = stabilizing_servo_stiffness(named("inverted_panel"), margin=0.5)
    a2 = stabilizing_servo_stiffness(named("inverted_panel"), margin=2.0)
    assert a2 > a1


def test_rescue_unachievable():
    with pytest.raises(Unachievable):
        stabilizing_servo_stiffness(named("inverted_panel"), margin=1.0,
                                    alpha_max=1.0)


def test_rescue_margin_validation():
    with pytest.raises(ValidationError):
        stabilizing_servo_stiffness(named("column"), margin=-1.0)


def test_rescue_rank_deficient_jacobian():
    posture = SupportPosture(
        p_bar=np.zeros(2), q_bar=np.zeros(2), tau_bar=np.zeros(2),
        k_q=np.eye(2), mass=1.0,
        ik_map=lambda p: np.array([p[0] + p[1], p[0] + p[1]]),
        z_of_p=lambda p: 0.0,
        **dict(flat(2), ik_jac=lambda p: np.array([[1.0, 1.0], [1.0, 1.0]])),
    )
    with pytest.raises(RankDeficient):
        stabilizing_servo_stiffness(posture)


def test_build_posture_defaults_and_errors():
    from superlimb.errors import ParseError

    p = build_posture({"posture": "hanging_panel"})
    assert p.mass == 4.0
    with pytest.raises(ParseError) as exc:
        build_posture({"posture": "nope"})
    assert exc.value.key == "stability.posture"
    with pytest.raises(ParseError):
        build_posture({"posture": "column", "mass": -2.0})
    with pytest.raises(ParseError):
        build_posture({"posture": "column", "r": 0.0})


def test_toggle_uses_gamma():
    # margin = k_tilt - 2*gamma*m*g on the tilt axes
    rep = stiffness_matrix_kp(named("toggle_mount", gamma=0.01))
    assert rep.margin == pytest.approx(2.0 - 2 * 0.01 * MG, rel=1e-6)
    assert rep.is_stable  # small coupling no longer eats the servo stiffness


# --- analytic Hessians and the closed-form rescue -------------------------------

PARITY = {"mass": 7.0, "k": 150.0, "r": 0.5, "gamma": 0.2}
HESSIAN_POINTS = {
    "defaults": ({}, None),
    "parity": (PARITY, None),
    "off-equilibrium": ({}, 7),
}


@pytest.mark.parametrize("point", HESSIAN_POINTS)
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_named_posture_hessians_match_finite_differences(name, point):
    params, seed = HESSIAN_POINTS[point]
    posture = named_posture(name, **params)
    p = posture.p_bar
    if seed is not None:
        p = p + np.random.default_rng(seed).uniform(-0.2, 0.2, posture.n_pose)
    pairs = [(hessian_ez(posture, p), finite_diff_hessian(posture.z_of_p, p))]
    for i in range(posture.n_joint):
        pairs.append((hessian_qi(posture, p, i),
                      finite_diff_hessian(lambda pp, i=i: posture.ik_map(pp)[i], p)))
    for analytic, fd in pairs:
        scale = max(1.0, float(np.max(np.abs(analytic))))
        np.testing.assert_allclose(analytic, fd, rtol=0.0, atol=1e-6 * scale)


def test_planted_z_hess_error_is_flagged():
    good = named("hanging_panel")
    bad = dataclasses.replace(good, z_hess=lambda p: 2.0 * good.z_hess(p))
    with pytest.warns(DiagnosticMismatch):
        rep = stiffness_matrix_kp(bad)
    assert rep.diagnostic_mismatch
    assert rep.crosscheck_rel_err > CROSSCHECK_RTOL


def test_hessian_closure_shapes_are_checked():
    toggle = named("toggle_mount")
    bad_ik = dataclasses.replace(toggle, ik_hess=lambda p: np.zeros((6, 6)))
    with pytest.raises(DimensionMismatch, match="ik_hess"):
        hessian_qi(bad_ik, bad_ik.p_bar, 2)
    with pytest.raises(DimensionMismatch, match="ik_hess"):
        stiffness_matrix_kp(bad_ik)
    bad_z = dataclasses.replace(toggle, z_hess=lambda p: np.zeros((5, 5)))
    with pytest.raises(DimensionMismatch, match="z_hess"):
        stabilizing_servo_stiffness(bad_z, margin=1.0)


def closed_form(name, mass=4.0, k=400.0, r=0.3, gamma=0.5):
    """(K_p diagonal, servo-free base diagonal) of a named posture at its
    equilibrium, where each has J = I and diagonal Hessians."""
    mg = mass * GRAVITY
    tilt = {"column": 0.0, "hanging_panel": mg * r, "inverted_panel": -mg * r,
            "cradle": 0.0, "toggle_mount": -2.0 * gamma * mg}[name]
    curv = mg * 2.0 / r if name == "cradle" else 0.0
    base = np.array([curv, curv, 0.0, tilt, tilt, 0.0])
    k_q = {"column": [k] * 3 + [0.2 * k] * 3, "hanging_panel": [k] * 3 + [1.0] * 3,
           "inverted_panel": [k] * 3 + [0.0] * 3, "cradle": [0.01 * k] * 6,
           "toggle_mount": [k] * 3 + [2.0] * 3}[name]
    return base + np.array(k_q), base


@pytest.mark.parametrize("params", [{}, PARITY, {"r": 1e-7}],
                         ids=["defaults", "parity", "tiny-r"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_margin_and_servo_alpha_are_closed_forms(name, params):
    posture = named_posture(name, **params)
    kp, base = closed_form(name, **params)
    rep = stiffness_matrix_kp(posture)
    assert rep.margin == pytest.approx(np.min(kp), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(rep.eigenvalues, np.sort(kp), rtol=1e-12, atol=1e-12)
    assert not rep.diagnostic_mismatch
    assert rep.crosscheck_rel_err < CROSSCHECK_RTOL
    assert rep.equilibrium_residual <= RESIDUAL_TOL
    margin = 1.5
    alpha = stabilizing_servo_stiffness(posture, margin=margin)
    expected = max(0.0, margin - np.min(base))
    assert alpha == pytest.approx(expected, rel=1e-12, abs=1e-12)
    # the returned value certifies itself, with no tolerance
    servo_free, jac = _base_stiffness(posture)
    assert np.linalg.eigvalsh(servo_free + alpha * jac.T @ jac)[0] >= margin


@pytest.mark.parametrize("params", [{}, PARITY], ids=["defaults", "parity"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_certificate_matches_the_reference_stencil(name, params, monkeypatch):
    # the cross-check and the residual give the same numbers, bit for bit,
    # as with a stencil that builds every offset from zeros
    def certify(posture):
        rep = stiffness_matrix_kp(posture)
        return (rep.crosscheck_rel_err, rep.equilibrium_residual, rep.eigenvalues.tobytes(),
                rep.margin, rep.is_stable, stabilizing_servo_stiffness(posture, margin=1.5))

    posture = named_posture(name, **params)
    u = functools.partial(potential, posture)
    assert (finite_diff_hessian(u, posture.p_bar).tobytes()
            == reference_fd_hessian(u, posture.p_bar).tobytes())
    got = certify(posture)
    # the potential Hessian's stencil is checked against reference_potential below
    monkeypatch.setattr(stability, "finite_diff_jacobian", reference_fd_jacobian)
    assert got == certify(posture)


def test_scalar_ik_map_of_a_one_coordinate_pose_is_accepted():
    slider = slider_posture()
    scalar = dataclasses.replace(slider, ik_map=lambda p: float(p[0]))
    for p in (np.array([0.01]), 0.01):
        assert potential(scalar, p) == potential(slider, p)
    assert (stiffness_matrix_kp(scalar).k_p.tobytes()
            == stiffness_matrix_kp(slider).k_p.tobytes())


def test_closed_form_rescue_matches_bisection_on_a_generic_posture():
    # linear ik with a non-orthogonal Jacobian (J'J != I) and a CoM height
    # that is a concave quadratic
    jac = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 0.3], [0.2, 0.0, 1.5]])
    curv = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
    mass = 1.5
    posture = SupportPosture(
        p_bar=np.zeros(3), q_bar=np.zeros(3), tau_bar=np.zeros(3),
        k_q=np.eye(3), mass=mass,
        ik_map=lambda p: jac @ np.asarray(p, float),
        z_of_p=lambda p: -0.5 * float(p @ curv @ p),
        ik_jac=lambda p: jac, z_hess=lambda p: -curv,
        ik_hess=lambda p: np.zeros((3, 3, 3)),
    )
    margin = 0.8
    alpha = stabilizing_servo_stiffness(posture, margin=margin)

    base, jtj = -mass * GRAVITY * curv, jac.T @ jac

    def reaches(a):
        return np.linalg.eigvalsh(base + a * jtj)[0] >= margin

    lo, hi = 0.0, 1e4
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    assert alpha == pytest.approx(hi, rel=1e-6)


def test_servo_alpha_certifies_itself_over_a_seeded_grid():
    # on some grid points the closed-form alpha falls a few ulps short of
    # the margin in roundoff; the returned value must still certify
    rng = np.random.default_rng(5)
    for t in range(50):
        name = sorted(POSTURES)[t % 5]
        params = {"mass": rng.uniform(2.0, 6.0), "k": rng.uniform(200.0, 800.0),
                  "r": rng.uniform(0.1, 0.5), "gamma": rng.uniform(0.2, 1.0)}
        margin = float(rng.uniform(0.5, 5.0))
        posture = named_posture(name, **params)
        alpha = stabilizing_servo_stiffness(posture, margin=margin)
        _, base = closed_form(name, **params)
        assert alpha == pytest.approx(max(0.0, margin - np.min(base)), rel=1e-12)
        servo_free, jac = _base_stiffness(posture)
        assert np.linalg.eigvalsh(servo_free + alpha * jac.T @ jac)[0] >= margin


# --- the cross-check's stacked potential ----------------------------------------

def drawn_posture(rng, name):
    """A named posture with drawn parameters, or for "dense" a posture whose
    torque offset, servo stiffness and ik map couple every coordinate, so
    that the energy's dot products round in an order of their own."""
    if name != "dense":
        return named_posture(name, mass=rng.uniform(0.5, 40.0), k=rng.uniform(0.0, 2e3),
                             r=rng.uniform(0.05, 2.0), gamma=rng.uniform(-3.0, 3.0))
    a, k, w = rng.standard_normal((6, 6)), rng.standard_normal((6, 6)), rng.standard_normal(6)
    return SupportPosture(
        p_bar=np.zeros(6), q_bar=rng.standard_normal(6), tau_bar=rng.standard_normal(6) * 50.0,
        k_q=k @ k.T * 100.0, mass=rng.uniform(0.5, 40.0),
        ik_map=lambda p: np.sin(a @ p), z_of_p=lambda p: float(w @ p), **flat(6),
    )


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from([*sorted(POSTURES), "dense"]), hs.integers(0, 2**32 - 1),
       hs.sampled_from([1e-6, 1e-4, 0.05, 1.0, 30.0]), hs.integers(1, 80))
def test_stacked_potential_is_each_pose_alone_bitwise(name, seed, reach, k):
    # poses well inside the stencil's 1e-4 steps, at its reach and far outside it
    rng = np.random.default_rng(seed)
    posture = drawn_posture(rng, name)
    poses = rng.standard_normal((k, posture.n_pose)) * reach
    stacked = potential(posture, poses.copy())
    assert stacked.shape == (k,)
    assert ([v.hex() for v in stacked.tolist()]
            == [reference_potential(posture, pp).hex() for pp in poses])
    stencil = hessian_stencil(poses[0])
    assert ([v.hex() for v in potential(posture, stencil).tolist()]
            == [reference_potential(posture, pp).hex() for pp in stencil])


def test_potential_of_one_pose_is_a_float_and_a_stack_checks_its_width():
    posture = named("toggle_mount")
    p = np.full(6, 0.01)
    assert type(potential(posture, p)) is float
    assert potential(posture, p).hex() == reference_potential(posture, p).hex()
    assert potential(posture, p[None]).shape == (1,)
    assert potential(posture, np.zeros((0, 6))).shape == (0,)
    for bad in (np.zeros((2, 5)), np.zeros((1, 2, 6))):
        with pytest.raises(DimensionMismatch, match=r"p must have shape \(6,\) or \(k, 6\)"):
            potential(posture, bad)


def certificate(posture):
    """A report's numbers by bytes, or the error it raised, by type and text."""
    try:
        rep = stiffness_matrix_kp(posture)
    except Exception as exc:  # compared with the reference's error
        return type(exc), str(exc)
    return (rep.crosscheck_rel_err.hex(), rep.equilibrium_residual.hex(), rep.margin.hex(),
            rep.eigenvalues.tobytes(), rep.k_p.tobytes(), rep.is_stable, rep.diagnostic_mismatch)


def reference_certificate(posture):
    try:
        rep = reference_stiffness_matrix_kp(posture)
    except Exception as exc:
        return type(exc), str(exc)
    return (rep.crosscheck_rel_err.hex(), rep.equilibrium_residual.hex(), rep.margin.hex(),
            rep.eigenvalues.tobytes(), rep.k_p.tobytes(), rep.is_stable, rep.diagnostic_mismatch)


@pytest.mark.filterwarnings("ignore::superlimb.stability.DiagnosticMismatch")
@pytest.mark.parametrize("params", [{}, PARITY, {"r": 1e-7}, {"gamma": 1e200}],
                         ids=["defaults", "parity", "tiny-r", "overflowing-gamma"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_certificate_matches_the_pose_by_pose_cross_check(name, params):
    assert certificate(named_posture(name, **params)) == reference_certificate(
        named_posture(name, **params))


@pytest.mark.filterwarnings("ignore::superlimb.stability.DiagnosticMismatch")
def test_certificate_matches_the_pose_by_pose_cross_check_over_a_seeded_grid():
    rng = np.random.default_rng(34)
    for t in range(60):
        posture = drawn_posture(rng, sorted(POSTURES)[t % 5])
        got = certificate(posture)
        assert got == reference_certificate(posture)
        assert len(got) == 7  # a report, not an error


def faulty(posture, ik_at, ik_fault, z_at, z_fault):
    """``posture`` whose ik_map misbehaves at the ``ik_at``-th point of the
    cross-check's stencil and whose z_of_p misbehaves at the ``z_at``-th."""
    index = {row.tobytes(): k for k, row in enumerate(hessian_stencil(posture.p_bar))}
    at = {}
    q_bar = posture.q_bar.copy()
    if ik_fault == "offset":  # a joint offset q - q_bar that overflows
        q_bar[5] = -1e308

    def ik_map(p):
        at["k"] = index.get(np.asarray(p).tobytes())
        q = posture.ik_map(p) + q_bar
        if at["k"] == ik_at and ik_fault != "none":
            if ik_fault == "raise":
                raise ValueError("ik blew up")
            q = {"nan": np.full(6, np.nan), "huge": np.full(6, 1e300),
                 "shape": np.zeros(5), "offset": np.full(6, 1e308)}[ik_fault]
        return q

    def z_of_p(p):
        z = posture.z_of_p(p)
        if at.get("k") == z_at and z_fault == "raise":
            raise ZeroDivisionError("z blew up")
        return {"nan": math.nan, "huge": 1e308}.get(z_fault, z) if at.get("k") == z_at else z

    return dataclasses.replace(posture, q_bar=q_bar, ik_map=ik_map, z_of_p=z_of_p)


@pytest.mark.filterwarnings("ignore::superlimb.stability.DiagnosticMismatch")
@settings(max_examples=150, deadline=None)
@given(hs.sampled_from(sorted(POSTURES)), hs.integers(0, 72), hs.just(0) | hs.integers(0, 72),
       hs.sampled_from(["raise", "nan", "huge", "shape", "offset", "none"]),
       hs.sampled_from(["raise", "nan", "huge"]))
def test_certificate_raises_the_first_failure_of_the_pose_by_pose_loop(
        name, ik_at, z_later, ik_fault, z_fault):
    # ik_map fails at one stencil point (or nowhere) and z_of_p at the same
    # or a later one
    z_at = min(72, ik_at + z_later)
    posture = faulty(named(name), ik_at, ik_fault, z_at, z_fault)
    got = certificate(posture)
    assert got == reference_certificate(faulty(named(name), ik_at, ik_fault, z_at, z_fault))
    assert len(got) == 2  # an error, not a report


def test_ik_failure_before_a_nan_height_is_the_ik_failure():
    posture = faulty(named("toggle_mount"), 20, "raise", 40, "nan")
    kind, text = certificate(posture)
    assert kind is IkFailure and text.startswith("ik_map failed at p=[")
    assert (kind, text) == reference_certificate(posture)


def scribbles(f):
    """f, then overwrite the pose it was given."""

    def g(p):
        value = f(p)
        p[:] = 1e3
        return value

    return g


@pytest.mark.filterwarnings("ignore::superlimb.stability.DiagnosticMismatch")
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_a_closure_writing_into_its_pose_moves_no_other_point(name):
    posture = named(name)
    clean = certificate(posture)
    assert certificate(dataclasses.replace(posture, z_of_p=scribbles(posture.z_of_p))) == clean
    # ik_map's write reaches z_of_p at its own pose only, as before
    scribbling_ik = dataclasses.replace(posture, ik_map=scribbles(posture.ik_map))
    assert certificate(scribbling_ik) == reference_certificate(scribbling_ik)


def pose_by_pose(posture, poses):
    """``reference_potential`` of each pose in turn, up to the first that is
    not finite, with NaN after it: the values a stack of them must give."""
    out = []
    for pp in poses:
        out.append(reference_potential(posture, pp))
        if not math.isfinite(out[-1]):
            break
    return [v.hex() for v in out + [math.nan] * (len(poses) - len(out))]


@pytest.mark.parametrize("setting, flags", [
    ({"all": "raise"}, "underflow"), ({"under": "raise"}, "underflow"),
    ({"over": "raise"}, "overflow"), ({}, ["overflow"]),
    ({"under": "warn", "over": "ignore"}, ["underflow"]), ({"all": "ignore"}, []),
])
def test_a_stack_flags_as_its_poses_do_under_the_callers_errstate(setting, flags):
    # an energy that underflows (dq dq about 1e-340) and then one that
    # overflows (about 1e400): each flag is raised, warned about or ignored
    # as the pose-by-pose loop has it, in its order
    posture = SupportPosture(
        p_bar=np.zeros(6), q_bar=np.zeros(6), tau_bar=np.ones(6), k_q=np.eye(6), mass=1.0,
        ik_map=lambda p: p.copy(), z_of_p=lambda p: float(p[0]), **flat(6))
    poses = np.array([np.full(6, 0.1), np.full(6, 1e-170), np.full(6, 1e200), np.full(6, 0.2)])

    def outcome(f):
        with warnings.catch_warnings(record=True) as seen, np.errstate(**setting):
            warnings.simplefilter("always")
            try:
                got = f()
            except FloatingPointError as exc:
                got = str(exc)
        return got, [str(w.message) for w in seen]

    got = outcome(lambda: [v.hex() for v in potential(posture, poses).tolist()])
    assert got == outcome(lambda: pose_by_pose(posture, poses))
    # raised, or the values with the warnings
    if isinstance(flags, str):
        assert got == (f"{flags} encountered in matmul", [])
    else:
        assert got[0][2:] == ["inf", "nan"]
        assert got[1] == [f"{flag} encountered in matmul" for flag in flags]


# --- the named postures' closures on stacks of poses ----------------------------

def scalar_maps(name, r=0.3, gamma=0.5):
    """A named posture's ik_map and z_of_p as one-pose formulas on numpy
    scalars: ``float``, ``math.cos`` and ``np.float64 ** 2`` (libm pow)."""
    if name == "cradle":
        a = 2.0 / r
        return lambda p: np.array(p, dtype=float), lambda p: 0.5 * a * (p[0] ** 2 + p[1] ** 2)
    if name == "toggle_mount":
        def ik(p):
            q = np.array(p, dtype=float)
            q[2] = p[2] + gamma * (p[3] ** 2 + p[4] ** 2)
            return q
        return ik, lambda p: float(p[2])
    offset = {"column": 0.0, "hanging_panel": -1.0, "inverted_panel": 1.0}[name] * r
    return (lambda p: np.array(p, dtype=float),
            lambda p: float(p[2]) + offset * math.cos(p[3]) * math.cos(p[4]))


def _pow_is_not_product(n):
    """The first n of a seeded draw of floats whose square by libm pow is not
    their product with themselves."""
    x = np.random.default_rng(36).standard_normal(20_000) * np.exp(
        np.random.default_rng(37).uniform(-30.0, 30.0, 20_000))
    return [v for v in x.tolist() if np.float64(v) ** 2 != v * v][:n]


#: a pose coordinate: signed zeros, subnormals, squares that underflow or
#: overflow, values whose pow and product squares differ, and any float
#: but an infinite one (whose cosine raises in either form)
COORDINATE = hs.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-160, 1e-150, 1.4e154, -1e155, 1e300, math.nan,
    *_pow_is_not_product(12),
]) | hs.floats(allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(hs.lists(hs.lists(COORDINATE, min_size=6, max_size=6), min_size=0, max_size=12))
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_a_named_stack_form_is_each_pose_alone_bitwise(name, poses):
    # the stack form, row by row, against the one-pose closure and the
    # one-pose formula on numpy scalars
    posture = named(name)
    stack = np.array(poses, dtype=float).reshape(-1, 6)
    assert posture.ik_map.on_stacks and posture.z_of_p.on_stacks
    with np.errstate(all="ignore"):
        q, zs = posture.ik_map(stack.copy()), posture.z_of_p(stack.copy())
        assert (q.shape, zs.shape) == ((len(stack), 6), (len(stack),))
        for p, q_row, z_row in zip(stack, q.tolist(), zs.tolist()):
            want = [v.hex() for v in [*q_row, z_row]]
            for ik, z in ((posture.ik_map, posture.z_of_p), scalar_maps(name)):
                assert [v.hex() for v in [*ik(p.copy()).tolist(), float(z(p.copy()))]] == want


def flagged(f, **setting):
    """f() under np.errstate(**setting): its value, or its error by type and
    text, and the RuntimeWarnings it gave, in order."""
    with warnings.catch_warnings(record=True) as seen, np.errstate(**setting):
        warnings.simplefilter("always", RuntimeWarning)
        try:
            got = f()
        except Exception as exc:  # compared with the reference's error
            got = type(exc), str(exc)
    return got, [str(w.message) for w in seen if w.category is RuntimeWarning]


@pytest.mark.filterwarnings("ignore::superlimb.stability.DiagnosticMismatch")
@pytest.mark.parametrize("under", ["raise", "warn", "ignore"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_squares_that_underflow_certify_as_the_pose_by_pose_loop(name, under):
    # every stencil point keeps four coordinates at 1e-160, whose squares
    # (and servo energies) underflow: the stacked maps run only where the
    # caller ignores underflow, and the certificate, its error and its
    # warnings are the reference's (the stack gives its warnings in another
    # order: each closure's for all rows, then each energy's)
    posture = dataclasses.replace(named(name), p_bar=np.full(6, 1e-160))
    got, seen = flagged(lambda: certificate(posture), under=under)
    want, want_seen = flagged(lambda: reference_certificate(posture), under=under)
    assert (got, sorted(seen)) == (want, sorted(want_seen))
    if under == "raise":
        assert got[0] is NonFinite and "underflow encountered" in got[1]
    else:
        assert len(got) == 7 and bool(seen) == (under == "warn")


@pytest.mark.parametrize("over", ["raise", "warn", "ignore"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_squares_that_overflow_end_a_named_stack_as_the_pose_by_pose_loop(name, over):
    # the middle pose's squares (cradle, toggle_mount) or servo energy
    # overflow: the stack ends there with the flags and the error of the
    # poses taken one at a time
    posture = named(name)
    poses = np.array([np.full(6, 0.1), np.full(6, 1e200), np.full(6, 0.2)])
    got = flagged(lambda: [v.hex() for v in potential(posture, poses).tolist()], over=over)
    assert got == flagged(lambda: pose_by_pose(posture, poses), over=over)


TILTED = [0.1, 0.1, 0.1, math.inf, 0.1, 0.1]


@pytest.mark.parametrize("setting", [{}, {"invalid": "raise"}, {"all": "ignore"}])
@pytest.mark.parametrize("poses", [[[0.1] * 6, TILTED, [0.2] * 6],
                                   [[0.1] * 6, [0.1, 0.1, 1e308, 0.1, 0.1, 0.1], TILTED]],
                         ids=["raising", "overflowing-first"])
@pytest.mark.parametrize("name", ["hanging_panel", "toggle_mount", "cradle"])
def test_a_named_stack_whose_map_raises_mid_stack_is_the_pose_by_pose_loop(name, poses, setting):
    # an infinite tilt: the panel's height raises in math.cos, on the stack
    # and on that pose alone, unless an earlier pose (at a height whose
    # energy overflows) ends the stack first, with that pose's flags by their
    # one-pose names (its m g z - tau_bar @ dq is inf - inf in a scalar
    # subtract); the toggle's squares and the cradle's joint offset make the
    # tilted pose's value NaN
    posture = named(name)
    poses = np.array(poses)
    got = flagged(lambda: [v.hex() for v in potential(posture, poses).tolist()], **setting)
    assert got == flagged(lambda: pose_by_pose(posture, poses), **setting)
    if name == "hanging_panel":
        with pytest.raises(ValueError, match="math domain error"):
            posture.z_of_p(poses)  # the stacked pass hands the stack to the loop
    if name == "hanging_panel" and poses[1, 3] == math.inf:
        assert got == ((ValueError, "math domain error"), [])
    else:  # a value that is not finite ends the stack, or its flag raises
        assert got[0][0] is FloatingPointError or got[0][-1] == "nan"


@pytest.mark.parametrize("swapped", ["ik_map", "z_of_p"])
@pytest.mark.parametrize("name", sorted(POSTURES))
def test_a_swapped_closure_is_called_once_per_row(name, swapped):
    posture = named(name)
    stencil = hessian_stencil(posture.p_bar)
    shapes = []

    def counted(p):
        shapes.append(p.shape)
        return getattr(posture, swapped)(p)

    swap = dataclasses.replace(posture, **{swapped: counted})
    assert potential(swap, stencil).tobytes() == potential(posture, stencil).tobytes()
    assert shapes == [(6,)] * len(stencil)
    # marked as taking stacks, the same closure is called once, on the stack
    shapes.clear()
    counted.on_stacks = True
    assert potential(swap, stencil).tobytes() == potential(posture, stencil).tobytes()
    assert shapes == [stencil.shape]
